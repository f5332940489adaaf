#!/usr/bin/env bash
# Profile the bound engine under `perf record -g` and print the
# report. The profiled run is the Table 2 bench (the full bound
# ladder on the suite); all arguments are forwarded to it, e.g.:
#
#   tools/profile_bounds.sh --scale 0.05         # all six machines
#   tools/profile_bounds.sh --scale 0.2 --config FS8
#
# Pass --simd on|off (before any bench flags) to A/B the vector vs.
# scalar kernel tables in one flag: "off" exports BALANCE_SIMD=scalar
# so dispatch pins the scalar fallback at runtime — same binary, no
# reconfigure (see docs/PERFORMANCE.md, "SIMD kernels and dispatch"):
#
#   tools/profile_bounds.sh --simd off --scale 0.2 --config GP1
#
# Configure with -DBALANCE_PROFILE=ON first so frame pointers are
# kept and the call graphs resolve (see docs/PERFORMANCE.md). When
# perf is unavailable (not installed, or perf_event_paranoid forbids
# sampling), falls back to a plain timed run so the wrapper is still
# useful inside restricted containers.
set -euo pipefail

build="${BUILD_DIR:-build}"
bench="$build/bench/table2_bound_complexity"
out="${PERF_DATA:-perf_bounds.data}"

if [ "${1:-}" = "--simd" ]; then
    [ $# -ge 2 ] || { echo "--simd needs on|off" >&2; exit 2; }
    case "$2" in
        on) unset BALANCE_SIMD ;;
        off) export BALANCE_SIMD=scalar ;;
        *) echo "--simd takes on|off, got '$2'" >&2; exit 2 ;;
    esac
    shift 2
fi

if [ ! -x "$bench" ]; then
    echo "building first..."
    cmake -B "$build"
    cmake --build "$build" --target table2_bound_complexity
fi

if ! command -v perf >/dev/null 2>&1; then
    echo "perf not found; running plain timed pass instead" >&2
    exec "$bench" "$@"
fi

if ! perf record -o "$out" -g -- "$bench" "$@"; then
    echo "perf record failed (perf_event_paranoid?); plain run:" >&2
    exec "$bench" "$@"
fi

perf report -i "$out" --stdio | head -60
echo
echo "full profile: perf report -i $out"
