"""Run one workload once per seed and report each metric's median and its
quartile spread (Q3 - Q1 as a share of the median).

    python3 perfbench/spread.py --workload plan_queries --seeds 1-10 [--seconds 30] [--trace 0]

Each run is a separate `perfbench/run.py` process, one after another, as a
steadiness check of the benchmark itself. The spread of the unscaled figures
and of the host slowness, read from each run's result file, follows.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RESULTS = Path(__file__).resolve().parent / "results"


def spread_line(name, vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return f"{name:24s} median {med:12.6g}  spread {spread:7.2%}"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    values, unscaled, fail_shares = {}, {}, []
    for seed in parse_seeds(args.seeds):
        out = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", args.trace],
                             capture_output=True, text=True, timeout=600, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print(out.stdout, file=sys.stderr)
            sys.exit(f"seed {seed}: outputs failed their checks")
        saved = json.loads((RESULTS / f"result-{args.workload}-seed{seed}-trace"
                                      f"{args.trace}.json").read_text())
        for name, v in saved["unscaled"][args.workload].items():
            unscaled.setdefault(name, []).append(v)
        fail_shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {res['attempted']}, failed {res['failed']}, " +
              ", ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
              flush=True)

    print(f"failed share per run: {sorted(set(fail_shares))}")
    for name, vals in values.items():
        print(spread_line(name, vals))
    print("unscaled:")
    for name, vals in unscaled.items():
        print(spread_line(name, vals))


if __name__ == "__main__":
    main()
