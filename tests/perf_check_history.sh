#!/usr/bin/env bash
# `axmemo perf --check` gates only against a like-for-like baseline:
# the newest BENCH_perf.json entry with the same `host` fingerprint and
# the same quick/full mode. Newer entries from another host or the other
# mode must be skipped (not counted as regressions), and with no
# matching entry at all the delta table is skipped and nothing is gated.
#
# Usage: perf_check_history.sh <axmemo-binary>
#
# Both runs use --quick at a tiny scale. The "unlike" entries carry
# impossibly good numbers, so diffing against either of them would flag
# regressions; the matching entry carries impossibly bad ones, so
# diffing against it never can, whatever the host's noise.
set -u

AXMEMO=${1:?usage: perf_check_history.sh <axmemo-binary>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "perf_check_history: $*" >&2
    exit 1
}

perf() {
    "$AXMEMO" perf --quick --check --scale 0.01 --out "$WORK" \
        > "$WORK/stdout.txt" 2> "$WORK/stderr.txt"
}

# --- run 1: history holds only an entry from another host ------------
cat > "$WORK/BENCH_perf.json" <<'EOF'
[
{"utc":"OTHER-HOST","quick":true,
 "host":{"cpu_model":"elsewhere","nproc":1,"compiler":"x","build_type":"y"},
 "fig7":{"simulated_minstr_per_second":1e12},
 "dse_scaling":{"jobs_4_minstr_per_second":1e12}}
]
EOF
perf || fail "another host's entry was gated on: $(cat "$WORK/stderr.txt")"
grep -q "delta table skipped" "$WORK/stdout.txt" \
    || fail "no 'delta table skipped' line without a matching entry"

# --- run 2: a matching entry hidden behind two unlike newer ones -----
# Run 1 appended this host's real quick entry; rebuild the history as
# [that entry made slow, the same entry in full mode made fast, the
# other-host entry].
python3 - "$WORK/BENCH_perf.json" <<'EOF' || fail "cannot build history"
import json, sys

path = sys.argv[1]
entries = json.load(open(path))
other, mine = entries[0], entries[-1]
rows = {  # canonical metric -> higher is better (perf.cc's delta rows)
    ("simmemory", "ns_per_op"): False,
    ("clone", "cow_clone_ns"): False,
    ("crc32", "word_feed_ns_per_byte"): False,
    ("lut", "mru_ns_per_lookup"): False,
    ("cache", "mru_ns_per_access"): False,
    ("cache", "speedup"): True,
    ("trace", "disabled_guard_ns_per_op"): False,
    ("telemetry", "disabled_guard_ns_per_op"): False,
    ("serve", "requests_per_second"): True,
    ("fig7", "simulated_minstr_per_second"): True,
    ("dse_scaling", "jobs_4_minstr_per_second"): True,
}

def scaled(entry, good):
    out = json.loads(json.dumps(entry))
    for (section, metric), higher in rows.items():
        if metric in out.get(section, {}):
            out[section][metric] = 1e12 if higher == good else 1e-6
    return out

slow = scaled(mine, good=False)
slow["utc"] = "MATCHING-ENTRY"
fast_full = scaled(mine, good=True)
fast_full["utc"] = "FULL-MODE"
fast_full["quick"] = False
json.dump([slow, fast_full, other], open(path, "w"))
EOF
perf || fail "an unlike newer entry was gated on: $(cat "$WORK/stderr.txt")"
grep -q "same-host entry (MATCHING-ENTRY)" "$WORK/stdout.txt" \
    || fail "delta table not taken against the matching entry"
grep -q "REGRESSION" "$WORK/stdout.txt" \
    && fail "regression flagged against the slow matching entry"
exit 0
