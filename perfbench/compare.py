#!/usr/bin/env python3
"""Compare two sets of stored benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as run.py writes
under .bench_build/results/. Runs are grouped by (workload, trace mode);
every run in a group must carry the same host fingerprint (CPU model,
nproc, compiler, build type, worker count, scale) on both sides, or the
comparison is refused. Seeds may differ between runs, but BASE and NEW
must cover the same seeds. For each metric the medians are compared and
end-to-end metrics are judged against their bound in BENCHMARK.json.
Exit code: 0 when nothing regressed beyond its bound, 1 on a regression,
2 when the comparison is refused.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fingerprint fields that must agree; seed is matched as a set instead.
HOST_FIELDS = ("cpu_model", "nproc", "compiler", "build_type", "workers",
               "scale")


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    groups = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        fp = r["fingerprint"]
        groups.setdefault((fp["workload"], fp["trace"]), []).append(r)
    return groups


def host(fp):
    return {k: fp[k] for k in HOST_FIELDS}


def refuse(message):
    print("refused: " + message)
    sys.exit(2)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    if set(base) != set(new):
        refuse("workload/trace groups differ: %s vs %s"
               % (sorted(base), sorted(new)))
    regressed = False
    for key in sorted(base):
        runs = base[key] + new[key]
        hosts = {json.dumps(host(r["fingerprint"]), sort_keys=True)
                 for r in runs}
        if len(hosts) != 1:
            refuse("%s trace %d: mismatched fingerprints:\n  %s"
                   % (key[0], key[1], "\n  ".join(sorted(hosts))))
        seeds = [sorted(r["fingerprint"]["seed"] for r in side[key])
                 for side in (base, new)]
        if seeds[0] != seeds[1]:
            refuse("%s trace %d: seeds differ: %s vs %s"
                   % (key[0], key[1], seeds[0], seeds[1]))
        print("== %s, trace %d, %d run(s) per side, host %s"
              % (key[0], key[1], len(base[key]), sorted(hosts)[0]))
        for name in base[key][0]["metrics"]:
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in base[key])
            n = statistics.median(r["metrics"][name]["value"]
                                  for r in new[key])
            unit = base[key][0]["metrics"][name]["unit"]
            change = (n - b) / b if b else 0.0
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds:
                if worse > bounds[name]:
                    verdict = "REGRESSED (bound %.0f%%)" % (
                        100 * bounds[name])
                    regressed = True
                else:
                    verdict = "within bound %.0f%%" % (100 * bounds[name])
            print("  %-30s %14.6g -> %14.6g %-9s %+7.2f%%  %s"
                  % (name, b, n, unit, 100 * change, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
