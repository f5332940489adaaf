#!/usr/bin/env bash
# Regenerate the committed CI report baseline
# (tools/baselines/report-smoke, see docs/REPORTING.md).
#
# The baseline is metrics-only: the gated counters are deterministic
# for the fixed seed/scale/config, so the snapshot is byte-identical
# on every machine, while the row/decision artifacts are too large to
# commit and the capturing machine's wall clocks must never gate CI
# runners. The manifest is therefore stripped of every artifact
# reference except the metrics snapshot.
#
# Run from the repository root after a change that legitimately moves
# a gated counter (and say why in the commit message):
#
#   tools/make_report_baseline.sh
set -euo pipefail

build="${BUILD_DIR:-build}"
out="tools/baselines/report-smoke"
scale="0.05"   # must match the report-gate job in ci.yml
# B&B certifier flags; must also match the report-gate job, or the
# bnb.* counters (zero-tolerance in tools/perf_budgets.json) will
# trip on the node-count mismatch.
bnb_flags="--bnb"

if [ ! -x "$build/bench/report_tool" ]; then
    echo "building report_tool first..."
    cmake -B "$build" -G Ninja
    cmake --build "$build" --target report_tool
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$build/bench/report_tool" run --out "$tmp" --scale "$scale" \
    $bnb_flags

mkdir -p "$out"
cp "$tmp/metrics.json" "$out/metrics.json"
python3 - "$tmp/manifest.json" "$out/manifest.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["artifacts"]["superblocks"] = ""
doc["artifacts"]["trace"] = ""
doc["artifacts"]["decision_logs"] = []
doc["wall_ms"] = {}
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, separators=(",", ":"))
    f.write("\n")
EOF

echo "baseline refreshed in $out/:"
ls -l "$out"
