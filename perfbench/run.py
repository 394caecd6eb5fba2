"""uavloc benchmark: online NR missions, offline log solves, planner queries.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
src/ directory. Each workload sets up five times (the median is `setup_s`):
it generates its inputs from the seed and makes one warm-up operation on a
fixed input. It then runs a fixed number of whole rounds of its
operation list, round(--seconds / the workload's `round_s`) and at least one,
so that the work done depends only on the seed and --seconds; checks every
output against the oracles in perfbench/oracles.py, and prints its metrics,
times scaled to a reference host speed measured during the run (see
HostSpeed). The last line of standard output is one JSON object: correct,
attempted, failed and the metrics, the end-to-end ones with --trace 0 and the
per-layer ones with --trace 1. --workload all runs the three workloads in
turn in this one process, each for a third of --seconds but at least one
round; there only the first reports `peak_rss_mb`, since the process's peak
carries over to the next. The unscaled figures and the host's slowness are
written next to the result in perfbench/results/.
"""
import os

# One BLAS thread: OpenBLAS would otherwise start a thread per core and the
# timings would depend on whatever else shares the machine. This must be set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5
# The warm-up operation of set-up runs on the first input of this seed,
# whatever the run's seed, so that every run's set-up does the same work.
WARMUP_SEED = 0

# The host's speed changes by up to half within minutes (contention on the
# shared cores of the VM), and the whole process slows or speeds up with it.
# A fixed reference kernel, timed between operations, measures that speed.
# Every reported time is divided by the slowness measured around it (kernel
# time over REF_KERNEL_S), that is, scaled to a host on which the kernel
# takes REF_KERNEL_S. Changing the kernel or the constant changes every
# reported time.
REF_KERNEL_S = 0.0025
REF_EVERY_S = 0.1    # operation time between two kernel timings
REF_WINDOW_S = 0.5   # an operation is scaled by the kernel timings this near

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
                    "op_s_p90": "s", "peak_rss_mb": "MB"}
ACCURACY_UNITS = {"slam.user_err_m_p50": "m", "slam.crb_outliers": "1/op",
                  "fim.final_crb_m2": "m2"}


def layer_unit(name):
    if name in ACCURACY_UNITS:
        return ACCURACY_UNITS[name]
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "slam.max_dim":
        return "count"
    if name == "slam.chol_flops":
        return "flop/op"
    return "1/op"


class HostSpeed:
    """Slowness of the host relative to the reference kernel, sampled along
    the run's cumulative operation time."""

    def __init__(self):
        self.points = np.random.default_rng(0).standard_normal((8, 3))
        self.at, self.took = [], []  # position in operation time, kernel time
        self.clock = 0.0
        self.since = 0.0
        self.kernel()  # the first call is slower; keep only warm timings
        self.at, self.took = [], []

    def kernel(self):
        t0 = time.perf_counter()
        s, v = 0.0, self.points
        for i in range(480):
            d = v - v[i % 8]
            s += float((d * d).sum() ** 0.5)
            s += sum(j * 0.5 for j in range(24))
        self.at.append(self.clock)
        self.took.append((time.perf_counter() - t0) / REF_KERNEL_S)

    def advance(self, op_seconds):
        """Count an operation's time; time the kernel once per REF_EVERY_S
        of it, all after the operation when it is longer than that, so that
        a long operation is scaled by as many timings as a run of short
        ones."""
        self.clock += op_seconds
        self.since += op_seconds
        while self.since >= REF_EVERY_S:
            self.kernel()
            self.since -= REF_EVERY_S

    def scale(self, durations):
        """Each duration of consecutive operations, divided by the mean
        slowness of the kernel timings within REF_WINDOW_S of its middle."""
        at, took = np.array(self.at), np.array(self.took)
        ends = np.cumsum(durations)
        out = []
        for d, mid in zip(durations, ends - np.asarray(durations) / 2):
            near = np.abs(at - mid) <= REF_WINDOW_S
            if not near.any():
                near = np.abs(at - mid) == np.abs(at - mid).min()
            out.append(d / took[near].mean())
        return out

    def mean(self):
        return statistics.fmean(self.took)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def run_workload(wl, seed, seconds, trace, measure_rss=True):
    from perfbench import tracing, workloads

    warm = wl.make_inputs(WARMUP_SEED)[0]
    setup = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup.kernel()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(seed)
        wl.run(warm)
        setup_times.append(time.perf_counter() - t0)
        setup.clock += setup_times[-1]
    setup.kernel()
    host = HostSpeed()
    host.kernel()

    tracer = tracing.Tracer() if trace else None
    undo = tracer.install() if trace else []
    op_times, problems, failed, first_round = [], [], 0, None
    rounds = max(1, round(seconds / wl.round_s))
    try:
        for _ in range(rounds):
            outputs = []
            for inp in inputs:
                if tracer:
                    tracer.op_id = len(op_times)
                t0 = time.perf_counter()
                try:
                    out = wl.run(inp)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    out = exc
                op_times.append(time.perf_counter() - t0)
                outputs.append(out)
                host.advance(op_times[-1])
            for inp, out in zip(inputs, outputs):
                if isinstance(out, Exception):
                    failed += 1
                    if failed == 1:
                        traceback.print_exception(out, file=sys.stderr)
                else:
                    problems.extend(wl.check(inp, out))
            if first_round is None:
                first_round = outputs
    finally:
        tracing.uninstall(undo)

    ok = [(i, o) for i, o in zip(inputs, first_round) if not isinstance(o, Exception)]
    errs, ratios, final_crb = wl.accuracy([i for i, _ in ok], [o for _, o in ok])
    limit = workloads.CRB_MULTIPLE
    if ratios and statistics.median(ratios) > limit:
        problems.append(f"median user error is {statistics.median(ratios):.3g} sqrt(CRB)")
    accuracy = {
        "slam.user_err_m_p50": statistics.median(errs) if errs else 0.0,
        "slam.crb_outliers": sum(r > limit for r in ratios) / len(inputs),
        "fim.final_crb_m2": final_crb,
    }

    host.kernel()
    slow = host.mean()
    elapsed = sum(op_times)
    raw = {"setup_s": statistics.median(setup_times),
           "ops_per_s": len(op_times) / elapsed,
           "op_s_p50": statistics.median(op_times),
           "op_s_p90": quantile(op_times, 90)}
    scaled = host.scale(op_times)
    e2e = {"setup_s": statistics.median(setup.scale(setup_times)),
           "ops_per_s": len(scaled) / sum(scaled),
           "op_s_p50": statistics.median(scaled),
           "op_s_p90": quantile(scaled, 90)}
    if measure_rss:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = {}
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, len(op_times), elapsed, slow)
        layers.update(accuracy)
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"trace-{wl.name}-seed{seed}.jsonl")
    return {"correct": not problems, "attempted": len(op_times), "failed": failed,
            "problems": problems, "e2e": e2e, "raw": raw, "host_factor": slow,
            "accuracy": accuracy, "layers": layers,
            "rounds": rounds, "round_ops": len(inputs)}


def report(name, res, trace):
    print(f"== {name}: {res['attempted']} operations attempted ({res['rounds']} rounds of "
          f"{res['round_ops']}), {res['failed']} failed, correct={res['correct']}")
    for msg in res["problems"][:20]:
        print(f"   CHECK FAILED {msg}")
    print(f"   host slowness {res['host_factor']:.4f} (mean reference kernel time over "
          f"{REF_KERNEL_S * 1e3:g} ms); times below are scaled by it. Unscaled: " +
          ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    rows = [(k, v, END_TO_END_UNITS[k]) for k, v in res["e2e"].items()]
    rows += [(k, v, ACCURACY_UNITS[k]) for k, v in res["accuracy"].items()]
    if trace:
        rows += [(k, v, layer_unit(k)) for k, v in res["layers"].items()
                 if k not in ACCURACY_UNITS]
    for key, value, unit in rows:
        print(f"   {key:28s} {value:14.6g} {unit}")
    if "peak_rss_mb" not in res["e2e"]:
        print("   peak_rss_mb not measured: the process's peak carries an earlier workload's")


def metrics_json(res, trace, prefix=""):
    if trace:
        return {prefix + k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    return {prefix + k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in res["e2e"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "uavloc" / "__init__.py").is_file():
        print(f"error: no uavloc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import uavloc
    if Path(uavloc.__file__).resolve().parent != (SRC / "uavloc").resolve():
        print(f"error: uavloc imported from {uavloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    seconds = args.seconds / len(names)
    results = {n: run_workload(WORKLOADS[n], args.seed, seconds, args.trace,
                               measure_rss=(i == 0))
               for i, n in enumerate(names)}
    for n, res in results.items():
        report(n, res, args.trace)
    if len(names) == 1:
        res = results[names[0]]
        metrics = metrics_json(res, args.trace)
    else:
        metrics = {}
        for n, res in results.items():
            metrics.update(metrics_json(res, args.trace, prefix=f"{n}."))
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    # The file holds, next to the result, each workload's unscaled figures and
    # the host's slowness that divided them, so that a change in the program
    # can be told from a change in the host.
    unscaled = {n: {"host_slowness": r["host_factor"], **r["raw"]}
                for n, r in results.items()}
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = "all" if len(names) > 1 else names[0]
    (RESULTS / f"result-{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "unscaled": unscaled}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
