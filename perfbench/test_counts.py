#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_counts.py [workload ...]

For each workload (all four by default) it runs the benchmark twice
untraced and twice traced on one seed, short runs, and checks that

  * every run passes its output checks and prints exactly the metrics
    BENCHMARK.json lists for its mode, each with the listed unit;
  * the quality metrics and every exact count (unit "count") repeat
    bit for bit across the two runs, so a later change can rest a
    claim on a count;
  * the traced layer times plus eval.other_ms account for the
    untraced unit time within TRACE_TOLERANCE.

Exit code 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"
SECONDS = "1"
TRACE_TOLERANCE = 0.10
QUALITY = ("ok_frac", "balance_slowdown", "bound_tightness", "cert_frac")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit("%s trace=%s exited %d:\n%s%s" % (
            workload, trace, out.returncode, out.stdout[-3000:],
            out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # `large` is not in BENCHMARK.json (README.md says why) but is
    # still built and run, so its checks and counts are tested too.
    workloads = sys.argv[1:] or (
        [w["name"] for w in spec["workloads"]] + ["large"])
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in workloads:
        for trace in ("0", "1"):
            a, b = run(w, trace), run(w, trace)
            for r in (a, b):
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if not r["correct"] or r["failed"] != 0:
                    problems.append("%s: a check failed" % w)
                if got != want[trace]:
                    problems.append("%s trace=%s: metrics %s, want %s" % (
                        w, trace, sorted(got.items()),
                        sorted(want[trace].items())))
            exact = [k for k, u in want[trace].items()
                     if u == "count" or k in QUALITY]
            for k in exact:
                va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
                if va != vb:
                    problems.append("%s: %s differs: %r vs %r" % (
                        w, k, va, vb))
            if trace == "1":
                over = a["metrics"]["trace.overhead_frac"]["value"]
                if abs(over) > TRACE_TOLERANCE:
                    problems.append("%s: trace.overhead_frac %.3f beyond "
                                    "%.2f" % (w, over, TRACE_TOLERANCE))
            print("%s trace=%s: %d problems so far" % (
                w, trace, len(problems)), flush=True)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
