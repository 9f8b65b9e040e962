#!/usr/bin/env python3
"""GOOFI campaign benchmark.

Runs whole GOOFI sessions (set-up, fault injection, close, recovery,
analysis) of one workload for a fixed time and prints every end-to-end
metric (--trace 0) or every per-layer metric (--trace 1), checking each
session's database against a cold serial run of the same campaign.

    python3 perfbench/run.py --workload scifi-control --seed 1 --trace 0

Builds perfbench/ (and the GOOFI sources it includes) into .bench_build/ on
first use; writes results and traces to .bench_out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
SESSION_BIN = os.path.join(BUILD, "perfbench_session")
SELFTEST_BIN = os.path.join(BUILD, "perfbench_selftest")

# Experiments per campaign, sized so one session takes about a second
# (detail-archive: a few) and the cold serial reference a few seconds.
WORKLOADS = {"scifi-control": 2500, "swifi-batch": 8000, "detail-archive": 160}

# The end-to-end metrics a run reports as the midrange of its sessions' 5th
# and 95th percentiles rather than their median. On the 4-vCPU VM the
# benchmark was tuned on, the host alternates between two speeds 1.5-1.9x
# apart and stays at each for tens of seconds, so a run's median, and either
# tail alone, jumps with the share of the run spent at each speed; the
# midrange stays between the two whenever a run sees both (README.md, "Host
# noise"). Memory does not depend on the speed.
MIDRANGE_METRICS = ("experiments_per_s", "setup_s", "recovery_s", "analysis_s")

SESSION_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds perfbench_session and the self-test (incremental)."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("GOOFI sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "perfbench_session", "perfbench_selftest"])
        with open(log_path, "a") as out:
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                    with open(log_path) as f:
                        tail = f.read()[-3000:]
                    print(tail, file=sys.stderr)
                    raise BenchError("build failed: " + " ".join(step))


def run_json(cmd):
    """Runs a perfbench_session command; returns its JSON result (with `error` set on
    any failure)."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timed out: " + " ".join(cmd)}
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        result = {}
    if proc.returncode != 0 and not result.get("error"):
        result["error"] = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
    result.setdefault("error", "")
    return result


def reference(workload, seed, experiments):
    return run_json([SESSION_BIN, "reference", "--workload", workload,
                     "--seed", str(seed), "--experiments", str(experiments)])


def session(workload, seed, experiments, trace_path=None):
    archive = os.path.join(OUT, "session-%d.goofidb" % os.getpid())
    cmd = [SESSION_BIN, "session", "--workload", workload, "--seed", str(seed),
           "--experiments", str(experiments), "--archive", archive]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        return run_json(cmd)
    finally:
        for path in (archive, archive + ".wal", archive + ".tmp"):
            if os.path.exists(path):
                os.remove(path)


def check(result, ref, experiments):
    """Experiments of `result` that errored or differ from the cold serial
    reference, plus the reasons."""
    if result.get("error"):
        return experiments, ["session failed: " + result["error"]]
    if ref.get("error"):
        return experiments, ["reference failed: " + ref["error"]]
    got, want = result["digest"], ref["digest"]
    reasons = []
    differing = sum(1 for a, b in zip(got["experiments"], want["experiments"]) if a != b)
    differing += abs(len(got["experiments"]) - len(want["experiments"]))
    if differing:
        reasons.append("%d experiment row sets differ from the reference" % differing)
    if got["reference"] != want["reference"]:
        differing += 1
        reasons.append("reference run rows differ")
    for key in ("tables", "rows", "outcomes"):
        if got[key] != want[key]:
            reasons.append("%s differ: %s vs %s" % (key, got[key], want[key]))
    if reasons and differing == 0:
        differing = 1
    return min(differing, experiments), reasons


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_stamp(args, build_info, loadavg_before, loadavg_after):
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": loadavg_before,
        "loadavg_after": loadavg_after,
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_table(title, rows):
    print(title)
    print("  %-36s %-6s %-6s %-4s %13s %13s %13s %13s %7s %4s" %
          ("metric", "unit", "better", "est", "value", "median", "q1", "q3",
           "spread", "n"))
    for name, unit, better, summary in rows:
        print("  %-36s %-6s %-6s %-4s %13.6g %13.6g %13.6g %13.6g %7.4f %4d" %
              (name, unit, better, summary["estimator"], summary["value"],
               summary["median"], summary["q1"], summary["q3"], summary["spread"],
               summary["n"]))


def estimate(name, values):
    """Summary of `values` plus the value the run reports for metric `name`."""
    summary = stats.summarize(values)
    if name in MIDRANGE_METRICS:
        return dict(summary, estimator="mid5", value=stats.midrange(values, 5))
    return dict(summary, estimator="p50", value=summary["median"])


def end_to_end_values(sessions):
    values = {"experiments_per_s": [], "setup_s": [], "recovery_s": [],
              "analysis_s": [], "peak_rss_mb": []}
    for s in sessions:
        if s.get("error"):
            continue
        values["experiments_per_s"].append(s["experiments"] / s["campaign_s"])
        for key in ("setup_s", "recovery_s", "analysis_s", "peak_rss_mb"):
            values[key].append(s[key])
    return values


def main():
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    experiments = WORKLOADS[args.workload]
    build()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d" % (args.workload, args.seed)
    trace_path = os.path.join(OUT, "trace-%s.json" % tag)
    loadavg_before = os.getloadavg()

    ref = reference(args.workload, args.seed, experiments)
    sessions = []  # (traced, result)
    attempted = failed = 0
    failures = []
    start = time.monotonic()
    index = 0
    while True:
        # Trace mode alternates untraced and traced sessions, so each pair's
        # difference is the tracing overhead.
        traced = bool(args.trace) and index % 2 == 1
        result = session(args.workload, args.seed, experiments,
                         trace_path if traced else None)
        bad, reasons = check(result, ref, experiments)
        attempted += experiments
        failed += bad
        failures += ["session %d: %s" % (index, r) for r in reasons]
        sessions.append((traced, result))
        index += 1
        whole_pair = not args.trace or index % 2 == 0
        if whole_pair and time.monotonic() - start >= args.seconds:
            break

    loadavg_after = os.getloadavg()
    build_info = next((r.get("build") for _, r in sessions if r.get("build")), {})
    stamp = host_stamp(args, build_info, loadavg_before, loadavg_after)

    metrics = {}
    report = {"host": stamp, "experiments_per_campaign": experiments,
              "sessions": len(sessions), "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted if attempted else 1.0,
              "failures": failures}
    untraced = [r for t, r in sessions if not t]
    values = end_to_end_values(untraced)
    if not args.trace:
        rows = []
        for m in benchmark["end_to_end"]:
            if values[m["name"]]:
                summary = estimate(m["name"], values[m["name"]])
                metrics[m["name"]] = {"value": summary["value"], "unit": m["unit"]}
                rows.append((m["name"], m["unit"], m["better"], summary))
        report["end_to_end"] = {name: estimate(name, v) for name, v in values.items() if v}
        # failed_frac is 0 when the benchmark is correct, so it is printed and
        # carried by attempted/failed rather than reported as a bounded metric.
        failed_frac = stats.summarize(
            [check(r, ref, experiments)[0] / experiments for t, r in sessions if not t])
        rows.append(("failed_frac", "frac", "lower", dict(failed_frac, estimator="p50",
                                                          value=failed_frac["median"])))
        print_table("%s seed %d: %d sessions, end-to-end (tracing off)" %
                    (args.workload, args.seed, len(sessions)), rows)
    else:
        traced = [r for t, r in sessions if t and not r.get("error")]
        overhead = []
        for i in range(0, len(sessions) - 1, 2):
            plain, with_trace = sessions[i][1], sessions[i + 1][1]
            if not plain.get("error") and not with_trace.get("error"):
                overhead.append(with_trace["campaign_s"] / plain["campaign_s"] - 1.0)
        layer_values = {}
        for r in traced:
            for name, value in r["layers"].items():
                layer_values.setdefault(name, []).append(value)
        if overhead:
            layer_values["trace.overhead_frac"] = overhead
        rows = []
        for m in benchmark["per_layer"]:
            if layer_values.get(m["name"]):
                summary = dict(stats.summarize(layer_values[m["name"]]), estimator="p50")
                summary["value"] = summary["median"]
                metrics[m["name"]] = {"value": summary["value"], "unit": m["unit"]}
                rows.append((m["name"], m["unit"], m["better"], summary))
        report["per_layer"] = {name: stats.summarize(v) for name, v in layer_values.items()}
        report["trace"] = traced[-1].get("trace") if traced else None
        print_table("%s seed %d: %d traced sessions, per layer (tracing overhead %s)" %
                    (args.workload, args.seed, len(traced),
                     "%.1f%%" % (100 * stats.median(overhead)) if overhead else "n/a"),
                    rows)
        with open(os.path.join(OUT, "layers-%s.json" % tag), "w") as f:
            json.dump(report["per_layer"], f, indent=1, sort_keys=True)
        print("trace: %s (Chrome trace-event JSON; open in Perfetto)" % trace_path)

    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failures.append("metrics not measured: " + ", ".join(missing))
    correct = failed == 0 and not failures
    print("failed_frac %.6g (%d of %d experiments attempted)" %
          (report["failed_frac"], failed, attempted))
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (tag, args.trace)), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    for failure in failures:
        print("FAILED: " + failure, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(2)
