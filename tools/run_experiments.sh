#!/usr/bin/env bash
# Regenerate every paper table/figure and the extension benches into
# results/. Full scale reproduces EXPERIMENTS.md; pass a scale factor
# for a quicker pass and a thread count to use more cores, e.g.:
#
#   tools/run_experiments.sh 0.25        # quarter suite, all cores
#   tools/run_experiments.sh 1.0 8       # full suite, 8 workers
#
# Pass --report-out DIR to additionally capture an instrumented run
# report (manifest + per-superblock rows + decision logs + rendered
# Markdown, see docs/REPORTING.md) at the same scale:
#
#   tools/run_experiments.sh --report-out results/report 0.25
#
# Pass --simd on|off to pin the kernel tables: "off" exports
# BALANCE_SIMD=scalar so every bench runs the scalar fallback — the
# one-flag A/B for vector-vs-scalar wall-clock. Results are bitwise
# identical either way (the golden tests pin it), so --simd, like
# THREADS, only ever changes wall-clock, never results/.
#
# Pass --debug-server PORT to serve live diagnostics from every bench
# (see docs/OBSERVABILITY.md, "Live introspection"). PORT 0 lets each
# bench pick an ephemeral port; the bound address is printed on stdout
# and therefore recorded in the tee'd results/<bench>.txt, so the port
# each bench chose is always recoverable afterwards. Scraping the
# server never changes a result byte, so this too only ever affects
# wall-clock, never results/.
#
# Outputs are byte-identical for every thread count (the runners
# reduce per-superblock slots in suite order), so THREADS only
# changes wall-clock, never results/.
set -euo pipefail

report_out=""
debug_server=""
positional=()
while [ $# -gt 0 ]; do
    case "$1" in
        --report-out)
            [ $# -ge 2 ] || { echo "--report-out needs a directory" >&2; exit 2; }
            report_out="$2"
            shift 2
            ;;
        --debug-server)
            [ $# -ge 2 ] || { echo "--debug-server needs a port (0 = ephemeral)" >&2; exit 2; }
            debug_server="$2"
            shift 2
            ;;
        --simd)
            [ $# -ge 2 ] || { echo "--simd needs on|off" >&2; exit 2; }
            case "$2" in
                on) unset BALANCE_SIMD ;;
                off) export BALANCE_SIMD=scalar ;;
                *) echo "--simd takes on|off, got '$2'" >&2; exit 2 ;;
            esac
            shift 2
            ;;
        *)
            positional+=("$1")
            shift
            ;;
    esac
done
set -- "${positional[@]+"${positional[@]}"}"

scale="${1:-1.0}"
threads="${2:-${THREADS:-0}}"
build="${BUILD_DIR:-build}"
out="results"
mkdir -p "$out"

thread_args=()
if [ "$threads" != "0" ]; then
    thread_args=(--threads "$threads")
fi

debug_args=()
if [ -n "$debug_server" ]; then
    debug_args=(--debug-server "$debug_server")
fi

if [ ! -x "$build/bench/table1_bounds" ]; then
    echo "building first..."
    cmake -B "$build" -G Ninja
    cmake --build "$build"
fi

paper_benches=(
    table1_bounds
    table2_bound_complexity
    table3_slowdown
    table4_optimal
    table5_noprofile
    table6_sched_complexity
    table7_ablation
    figure8_gcc_cdf
)
extension_benches=(
    optimality_gap
    ablation_tw_budget
    superblock_vs_bb
)

for b in "${paper_benches[@]}" "${extension_benches[@]}"; do
    echo "== $b (scale $scale) =="
    # Each bench also dumps its metric-registry snapshot (counter /
    # gauge / histogram totals, see docs/OBSERVABILITY.md) next to
    # its table; splice_experiments.py links the snapshot under the
    # spliced block.
    "$build/bench/$b" --scale "$scale" "${thread_args[@]}" \
        "${debug_args[@]}" \
        --metrics-out "$out/$b.metrics.json" \
        | tee "$out/$b.txt"
    echo
done

if [ -n "$report_out" ]; then
    echo
    echo "== run report (scale $scale) =="
    mkdir -p "$report_out"
    "$build/bench/report_tool" run --out "$report_out" \
        --scale "$scale" "${thread_args[@]}" "${debug_args[@]}"
    "$build/bench/report_tool" render "$report_out/manifest.json" \
        -o "$report_out/report.md"
    echo "report: $report_out/report.md"
fi

echo
echo "all outputs in $out/"
