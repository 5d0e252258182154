#!/usr/bin/env bash
# Golden stdout check for the artifact driver: `axmemo run fig9` and
# `axmemo run fig7` (serial and parallel) and `axmemo run
# atm_comparison` must be byte-identical to the committed goldens in
# tests/golden/, recorded at AXMEMO_SCALE=0.02. Any drift in banner,
# table layout or number formatting fails the comparison, and so does
# any change to the simulated cycles and energy behind fig7's speedup
# and energy-saving tables. All three reports are free of host timing.
#
# usage: artifact_driver_identity.sh <axmemo> <golden-dir>
set -eu

driver="$1"
golden="$2"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

export AXMEMO_SCALE=0.02
unset AXMEMO_FULL 2>/dev/null || true

# compare <golden-file> <output-file> <what>
compare() {
    if ! cmp -s "$1" "$2"; then
        echo "$3 stdout differs from $1:" >&2
        diff "$1" "$2" >&2 || true
        exit 1
    fi
}

for jobs in 1 4; do
    AXMEMO_JOBS=$jobs "$driver" run fig9 --out "$workdir" \
        >fig9.$jobs.out 2>/dev/null
    compare "$golden/fig9_scale0.02.stdout" fig9.$jobs.out \
        "fig9 at AXMEMO_JOBS=$jobs"
done

# The driver must also have produced its sidecar files.
test -s "$workdir/fig9_sweep.json"
test -s "$workdir/fig9.json"
test -s "$workdir/manifest.json"

echo "fig9 stdout matches the golden (serial and parallel)"

# fig7 runs every workload through the baseline, the four AxMemo LUT
# setups and the software LUT: the flagship numbers of the paper.
for jobs in 1 4; do
    AXMEMO_JOBS=$jobs "$driver" run fig7 --out "$workdir" \
        >fig7.$jobs.out 2>/dev/null
    compare "$golden/fig7_scale0.02.stdout" fig7.$jobs.out \
        "fig7 at AXMEMO_JOBS=$jobs"
done
echo "fig7 stdout matches the golden (serial and parallel)"

# atm_comparison dispatches through the MemoBackend registry: the
# registry seam must not move a byte either.
AXMEMO_JOBS=1 "$driver" run atm_comparison --out "$workdir" \
    >atm.out 2>/dev/null
compare "$golden/atm_comparison_scale0.02.stdout" atm.out "atm_comparison"
echo "atm_comparison stdout matches the golden"
