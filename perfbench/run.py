#!/usr/bin/env python3
"""The repository benchmark: build the ledger, run one workload, gate it.

    python3 perfbench/run.py --workload paper_grid --seed 42 --seconds 30 --trace 0

builds `perfbench_ledger` from ../src into .bench_build/ (the first run
compiles; later runs are incremental), runs the workload for --seconds of
host time, checks the simulated results, and prints every metric by name
with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

Correctness gate: every job's simulated statistics and outputs are
digested. All passes of a run (untraced, traced, any worker count) must
agree, and for the seeds stored in reference/<workload>.json (42 and one
held-out seed) the digests must equal the stored ones. A run that fails
the gate prints "correct": false, exits 1 and writes no result file.

Passing runs are stored under .bench_build/results/ with a host
fingerprint; compare.py compares two sets and refuses unlike hosts.

Other modes:
    --workload all       run the three workloads one after another; the
                         last line carries every metric as workload/metric
    --smoke              tiny-scale run of all three workloads, both trace
                         modes and two worker counts; checks every metric
                         name (the benchmark's own test)
    --write-reference    record this seed's digests in reference/
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("paper_grid", "compiler_flow", "dse_sweep")
# Fixed worker count, recorded in every fingerprint. Four parallel
# workers average over the host's cores; one serial worker drifts with
# whichever core it lands on (measured ~2x the run-to-run spread).
WORKERS = 4
# Tiny scales for --smoke: every code path, a fraction of the volume.
SMOKE_SCALES = {"paper_grid": 0.01, "compiler_flow": 0.002,
                "dse_sweep": 0.005}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The paper's geomean speedups (EXPERIMENTS.md) next to the model's.
PAPER_POINTS = (("axmemo L1(4KB)", "L1(4KB)", 1.40),
                ("axmemo L1(8KB)+L2(512KB)", "L1(8KB)+L2(512KB)", 2.82),
                ("software-lut", "software-lut", 0.94))


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the ledger target incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/ next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_ledger", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_ledger")


def run_ledger(binary, workload, seed, seconds, trace, workers,
               extra=()):
    """Run one ledger invocation; returns its parsed report."""
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    out = os.path.join(work_dir, "report.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workers", str(workers), "--work-dir", work_dir,
           "--out", out] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail("ledger exited with %d" % proc.returncode, 1)
        with open(out) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        fail("ledger timed out after %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(report):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "workers": int(report["workers"]),
        "scale": report["scale"],
        "seed": int(report["seed"]),
        "workload": report["workload"],
        "trace": int(report["trace"]),
    }


def reference_checks(report):
    """Compare digests with the stored reference for this seed/scale."""
    path = os.path.join(REFERENCE_DIR, report["workload"] + ".json")
    seed = str(int(report["seed"]))
    if not os.path.isfile(path):
        return [{"name": "reference_digest", "ok": False,
                 "detail": "missing " + os.path.relpath(path, ROOT)}]
    with open(path) as f:
        ref = json.load(f).get(seed)
    if ref is None:
        return [{"name": "reference_digest", "ok": True,
                 "detail": "no stored reference for seed %s; cross-pass "
                           "and cross-path checks only" % seed}]
    if ref["scale"] != report["scale"]:
        return [{"name": "reference_digest", "ok": False,
                 "detail": "reference for seed %s is at scale %g, this "
                           "run is at scale %g; re-record it with "
                           "--write-reference if the scale change is "
                           "intended" % (seed, ref["scale"],
                                         report["scale"])}]
    bad = [label for label, got, want in
           zip(report["job_labels"], report["job_digests"],
               ref["job_digests"]) if got != want]
    ok = (report["digest"] == ref["digest"] and not bad and
          len(report["job_digests"]) == len(ref["job_digests"]))
    detail = ("digest %s matches seed %s" % (ref["digest"], seed) if ok
              else "mismatch on %d job(s): %s" % (len(bad),
                                                   ", ".join(bad[:5])))
    return [{"name": "reference_digest", "ok": ok, "detail": detail}]


def paper_lines(report):
    speedups = report.get("geomean_speedups")
    if not speedups:
        return []
    lines = ["model vs paper (Fig. 7 geomean speedup; reported, not "
             "gated; the model is unvalidated beyond these points):"]
    for key, label, paper in PAPER_POINTS:
        sim = speedups[key]
        lines.append("  %-18s simulated %.3fx  paper %.2fx  relative "
                     "error %+.1f%%" % (label, sim, paper,
                                        100.0 * (sim - paper) / paper))
    return lines


def evaluate(report, spec, reference=True):
    """Run every gate; returns (correct, checks, metrics). reference=False
    skips the stored-reference check (smoke runs at tiny scales)."""
    checks = list(report["checks"])
    if reference:
        checks += reference_checks(report)
    names = expected_metrics(spec, int(report["trace"]))
    got = report["metrics"]
    missing = [n for n in names if n not in got]
    extra = [n for n in got if n not in names]
    checks.append({"name": "metric_names_match_benchmark_json",
                   "ok": not missing and not extra,
                   "detail": "missing %s, unexpected %s" % (missing, extra)})
    metrics = {n: got[n] for n in names if n in got}
    for name, m in metrics.items():
        if m["value"] is None:
            checks.append({"name": "finite_" + name, "ok": False,
                           "detail": "not a finite number"})
    correct = all(c["ok"] for c in checks)
    return correct, checks, metrics


def print_summary(report, fp, checks, metrics):
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print("passes: %d untraced, %d traced (median of each), %d set-up "
          "samples" % (report["untraced_passes"], report["traced_passes"],
                       len(report["setup_samples"])))
    for name, m in metrics.items():
        value = "null" if m["value"] is None else "%.6f" % m["value"]
        print("  %-30s %16s %s" % (name, value, m["unit"]))
    for c in checks:
        print("check %-36s %s  %s" % (c["name"], "ok" if c["ok"] else
                                      "FAILED", c["detail"]))
    for line in paper_lines(report):
        print(line)


def store_result(report, fp, metrics):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%fZ")
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d-%s.json" % (
        fp["workload"], fp["seed"], fp["trace"], stamp))
    record = {"fingerprint": fp, "metrics": metrics,
              "digest": report["digest"],
              "wall_samples": report["wall_samples"],
              "cpu_samples": report["cpu_samples"],
              "traced_wall_samples": report["traced_wall_samples"],
              "setup_samples": report["setup_samples"],
              "geomean_speedups": report.get("geomean_speedups")}
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def write_reference(report):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, report["workload"] + ".json")
    refs = {}
    if os.path.isfile(path):
        with open(path) as f:
            refs = json.load(f)
    refs[str(int(report["seed"]))] = {
        "scale": report["scale"], "digest": report["digest"],
        "job_labels": report["job_labels"],
        "job_digests": report["job_digests"]}
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s seed %d" % (os.path.relpath(path, ROOT),
                                int(report["seed"])))


def smoke(binary, spec):
    """Tiny-scale pass over every workload, metric and code path."""
    ok = True
    for workload in WORKLOADS:
        scale = ["--scale", str(SMOKE_SCALES[workload])]
        digests = set()
        for trace, workers in ((0, WORKERS), (1, 1), (1, 4)):
            report = run_ledger(binary, workload, 42, 0, trace, workers,
                                scale)
            correct, checks, _ = evaluate(report, spec, reference=False)
            digests.add(report["digest"])
            for c in checks:
                if not c["ok"]:
                    print("smoke %s trace %d workers %d: %s FAILED: %s" % (
                        workload, trace, workers, c["name"], c["detail"]))
            ok = ok and correct
            print("smoke %-13s trace %d workers %d: %s, %d metrics" % (
                workload, trace, workers,
                "ok" if correct else "FAILED", len(report["metrics"])))
        if len(digests) != 1:
            print("smoke %s: digests differ across trace modes and "
                  "worker counts: %s" % (workload, sorted(digests)))
            ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def run_workload(binary, spec, workload, args, seconds):
    """Run, gate, print and store one workload; returns (correct,
    report, metrics)."""
    report = run_ledger(binary, workload, args.seed, seconds, args.trace,
                        WORKERS)
    if args.write_reference:
        checks = [c for c in report["checks"] if not c["ok"]]
        if checks:
            fail("refusing to record a reference from a failing run: %s"
                 % checks, 1)
        write_reference(report)
    fp = fingerprint(report)
    correct, checks, metrics = evaluate(report, spec)
    print_summary(report, fp, checks, metrics)
    if correct:
        print("result: " + os.path.relpath(
            store_result(report, fp, metrics), ROOT))
    return correct, report, metrics


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    spec = benchmark_spec()
    binary = build()
    if args.smoke:
        return smoke(binary, spec)

    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(binary, spec, w, args, seconds)
            for w in workloads]
    if len(runs) == 1:
        metrics = runs[0][2]
    else:
        # --workload all: one line for all three, names prefixed.
        metrics = {"%s/%s" % (w, name): m
                   for w, (_, _, ms) in zip(workloads, runs)
                   for name, m in ms.items()}
    correct = all(r[0] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r[1]["attempted"])
                                       for r in runs),
                      "failed": sum(int(r[1]["failed"]) for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
