"""spinladder benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads and metrics are listed in BENCHMARK.json. Every invocation runs
``spinladder.cli.main(argv)`` in a fresh interpreter (bench/child.py) with
OpenBLAS, OpenMP and MKL pinned to one thread, and its outputs are checked
(bench/workloads.py). Invocations repeat, one after another, until
``--seconds`` is used up; timings are reported as medians.

``--trace 0`` measures the end-to-end metrics with tracing off: wall_s (from
calling cli.main to its return), setup_s (from the spawn until spinladder.cli
is imported), peak_rss_mb (the child's ru_maxrss), and fail_ratio (failed
over attempted, also given by the result's own keys). ``--trace 1``
alternates untraced and traced invocations and reports the per-layer metrics
of the traced ones, plus trace.overhead_ratio (traced wall over untraced
wall, minus one).

wall_s and setup_s are reported in reference seconds. On a shared host the
machine alternates between a fast and a slow phase, about 1.5x apart, and a
phase can outlast a whole run, so raw medians of ten runs spread by up to
30% of their median. Each child therefore times a fixed calibration kernel
right before and right after cli.main. A run's wall and set-up samples are
all multiplied by one factor, CAL_REF_S over the median of the run's
calibration timings. The raw medians are printed as well.

The report lists each metric with its unit, median, quartiles and sample
count; its last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

#: Single-threaded baseline: never more threads than the two cores of the
#: reference box, and the default of two threads measured 1.7x slower on
#: anisotropy-grid and 2x slower on disorder-ensemble.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Iterations a run always makes, however short --seconds is, so medians
#: have at least three samples. Beyond that the count is rounded to the
#: nearest whole number of iterations that fit in --seconds.
MIN_ITERATIONS = 3

#: Per-child limit; a run must end within 180 s.
CHILD_TIMEOUT_S = 100

#: Typical child.calibrate() time in benchmark runs on the reference box
#: (2-vCPU Intel Xeon VM, NumPy 2.4.6 with OpenBLAS 0.3.31, one thread): the
#: speed that scaled timings refer to.
CAL_REF_S = 0.012

os.environ.update(THREADS)  # before NumPy loads here; the children inherit it
import workloads  # noqa: E402


def spawn(args):
    """Run child.py with args; its JSON report with setup_s, or an error string."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return f"child exited with {proc.returncode}: {tail}"
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    return report


def invoke(workload, argv, traced, inputs, reference, expected):
    """One checked CLI invocation: (report or None, problems)."""
    out = os.path.join(WORK, "out")
    shutil.rmtree(out, ignore_errors=True)
    report = spawn((["--trace"] if traced else []) + argv + ["--out", out])
    if isinstance(report, str):
        return None, [report]
    if report["rc"] != 0:
        return report, [f"exit code {report['rc']}"]
    problems = workloads.check_outputs(workload, out, inputs, reference, expected)
    if traced:
        report["layers"]["io.bytes_written"] = workloads.bytes_written(out)
    return report, problems


def report_metric(name, values, unit):
    """Print one metric's median, quartiles and sample count; return the median."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{name:36s} {median:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return median


def environment(report):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **report["env"],
            "threads": THREADS, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            return next(line.split()[0] for line in handle if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def measure(workload, seed, seconds, trace):
    """Run invocations for the given seconds; (attempted, failed, samples)."""
    inputs = workload.inputs(seed)
    argv = workload.argv(inputs)
    print(f"inputs: spinladder {' '.join(argv)}")
    reference = workload.reference(inputs)
    expected = load_expected().get(workload.name) if seed == workloads.DEFAULT_SEED else None
    print(f"checks: oracle at every seed, recorded digest {'on' if expected else 'off (not the default seed)'}")

    samples = {"raw_wall_s": [], "raw_setup_s": [], "peak_rss_mb": [], "calibration_s": [],
               "traced_wall_s": [], "layers": [], "absent": {}}
    attempted = failed = iterations = 0
    start = time.perf_counter()
    while True:
        order = [False, True] if trace else [False]
        if iterations % 2:
            order.reverse()
        for traced in order:
            report, problems = invoke(workload, argv, traced, inputs, reference, expected)
            attempted += 1
            if report is not None:
                if "env" not in samples:
                    samples["env"] = environment(report)
                samples["raw_setup_s"].append(report["setup_s"])
                samples["calibration_s"] += report["cal_s"]
            if problems:
                failed += 1
                print(f"  invocation {attempted} FAILED: {'; '.join(problems[:5])}")
                continue
            if traced:
                samples["traced_wall_s"].append(report["wall_s"])
                samples["layers"].append(report["layers"])
                samples["absent"] = report["absent"]
            else:
                samples["raw_wall_s"].append(report["wall_s"])
                samples["peak_rss_mb"].append(report["peak_rss_mb"])
            print(f"  invocation {attempted}: {'traced ' if traced else ''}wall {report['wall_s']:.4f} s, "
                  f"setup {report['setup_s']:.4f} s, calibration {report['cal_s'][0]:.4f} and "
                  f"{report['cal_s'][1]:.4f} s, rss {report['peak_rss_mb']:.1f} MB (raw)")
        iterations += 1
        elapsed = time.perf_counter() - start
        if iterations >= MIN_ITERATIONS and elapsed * (iterations + 0.5) / iterations > seconds:
            break
    for metric, source in samples["absent"].items():
        print(f"  absent: {metric} ({source} not found)")
    return attempted, failed, samples


def end_to_end(samples):
    """Timing samples scaled to the reference speed by the run's calibration."""
    if not samples["calibration_s"]:
        return {}
    factor = CAL_REF_S / statistics.median(samples["calibration_s"])
    return {"wall_s": [factor * value for value in samples["raw_wall_s"]],
            "setup_s": [factor * value for value in samples["raw_setup_s"]],
            "peak_rss_mb": samples["peak_rss_mb"]}


def per_layer(samples, names):
    values = {}
    for name in names:
        series = [layers[name] for layers in samples["layers"] if name in layers]
        if series:
            values[name] = series
    if samples["traced_wall_s"] and samples["raw_wall_s"]:
        values["trace.overhead_ratio"] = [
            statistics.median(samples["traced_wall_s"]) / statistics.median(samples["raw_wall_s"]) - 1.0]
    return values


def main(argv=None):
    config = load_config()
    parser = argparse.ArgumentParser(description="spinladder benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinladder", "cli.py")):
        sys.exit(f"error: no spinladder source under {os.path.join(ROOT, 'src')}; "
                 "run from a full checkout")
    workload = workloads.WORKLOADS[args.workload]

    os.makedirs(WORK, exist_ok=True)
    try:
        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
        attempted, failed, samples = measure(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("env: " + json.dumps(samples.get("env")))
    if args.trace:
        specs = config["per_layer"]
        values = per_layer(samples, [m["name"] for m in specs])
    else:
        specs = config["end_to_end"]
        values = end_to_end(samples)
    metrics = {}
    for spec in specs:
        series = values.get(spec["name"])
        if not series:
            print(f"{spec['name']:36s} absent")
            continue
        metrics[spec["name"]] = {"value": report_metric(spec["name"], series, spec["unit"]),
                                 "unit": spec["unit"]}
    print(f"{'fail_ratio':36s} {failed / attempted:14.6g} {'ratio':6s} ({failed} of {attempted} invocations)")
    for name in ("raw_wall_s", "raw_setup_s", "calibration_s"):
        if samples[name]:
            report_metric(name, samples[name], "s")
    if workload.name == "anisotropy-grid" and samples["raw_wall_s"]:
        cells = workloads.GRID_CELLS ** 2
        print(f"{'seconds per heatmap cell':36s} {statistics.median(samples['raw_wall_s']) / cells:14.6g} s")
    if not metrics:
        sys.exit("error: no invocation succeeded; nothing was measured")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_expected():
    """Digests recorded at the default seed by bench/record.py."""
    with open(os.path.join(BENCH, "expected.json")) as handle:
        return json.load(handle)


if __name__ == "__main__":
    main()
