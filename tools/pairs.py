"""Alternating parent/change pairs of the benchmark, and what they allow to claim.

    python3 tools/pairs.py --parent REV --pairs N [--seed S] [--seconds T] --out FILE [--null]

The parent side is REV extracted by `git archive REV | tar -x` into a
temporary directory. The change side is this working tree, extracted into
another one when the session starts: its tracked files as they are on disk
and its untracked files that git does not ignore. So both sides run from a
fresh directory, and the checkout's own leftovers (build output, caches,
results) are in neither. With --null the change side is a second extraction
of REV, so that the session measures how far two identical trees read apart. Pair i runs the BENCHMARK.json command with --seed S + i
and --seconds T once on each side, each in a fresh interpreter, one process
at a time; the side that runs first alternates. The session is appended to
FILE (a JSON object with a "sessions" list).

Per workload and end-to-end metric it records both sides' medians and
quartiles, the pairs the change won (ties count for neither), and marks
- a claim where, over at least ten pairs, the change won at least 9 of 10
  and its median is better than the parent's by more than the parent's
  quartile spread;
- a regression where the change's median is worse than the parent's by more
  than the metric's BENCHMARK.json bound, as a share of the parent's median;
- an unresolved metric where either side's quartile spread, as a share of
  its median, is wider than that bound, unless every change run reads
  better than every parent run.
A workload whose change side fails a larger share of operations is a
regression too.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# "== NAME: A operations attempted (...), F failed, ..." in the benchmark's report
WORKLOAD_LINE = re.compile(r"^== (\S+): (\d+) operations attempted .*?, (\d+) failed,", re.M)


def quartiles(values):
    """(Q1, median, Q3) of the values, linearly interpolated between ranks."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        return v[lo] + (v[min(lo + 1, len(v) - 1)] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(parent, change, better, bound):
    """Statistics of one metric over pairs: parent[i] and change[i] are the
    two sides' values in pair i; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (cm - pm)
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    return {"parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_minus_parent_pct": 100.0 * (cm - pm) / pm if pm else None,
            "change_wins": wins, "pairs": len(parent),
            "claim": len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > p3 - p1,
            "regression": -gain > bound * abs(pm),
            "unresolved": max(p3 - p1, c3 - c1) > bound * abs(pm) and not apart}


def summarize(runs, end_to_end):
    """Per workload: the failed and attempted operations of each side and the
    comparison of every end-to-end metric both sides report. `runs` holds,
    per pair in order, {"parent": run, "change": run}, each run as
    {"workloads": {name: {"attempted", "failed", "host_slowness"}},
    "metrics": {"name.metric": value}}; `end_to_end` is BENCHMARK.json's list."""
    out = {}
    for wl in runs[0]["parent"]["workloads"]:
        counts = {side: {k: sum(r[side]["workloads"][wl][k] for r in runs)
                         for k in ("attempted", "failed")} for side in ("parent", "change")}
        share = {side: c["failed"] / c["attempted"] if c["attempted"] else 0.0
                 for side, c in counts.items()}
        metrics = {}
        for m in end_to_end:
            key = f"{wl}.{m['name']}"
            if all(key in r[side]["metrics"] for r in runs for side in ("parent", "change")):
                metrics[m["name"]] = compare([r["parent"]["metrics"][key] for r in runs],
                                             [r["change"]["metrics"][key] for r in runs],
                                             m["better"], m["bound"])
        out[wl] = {"operations": counts,
                   "host_slowness_median": {
                       side: statistics.median(r[side]["workloads"][wl]["host_slowness"]
                                               for r in runs)
                       for side in ("parent", "change")},
                   "more_failed": share["change"] > share["parent"],
                   "metrics": metrics}
    return out


def extract(rev, into):
    """The tree of `rev` written into the directory `into`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"error: git archive {rev} failed")


def extract_worktree(into, root=ROOT):
    """The working tree of the repository at `root` written into the directory
    `into`: tracked files as they are on disk (one deleted on disk is left
    out) and untracked files that git does not ignore."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, capture_output=True,
                            check=True).stdout.decode()
    for name in sorted(set(listed.split("\0")) - {""}):
        src = Path(root) / name
        if src.is_file() or src.is_symlink():
            dst = Path(into) / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst, follow_symlinks=False)


def run_side(tree, command, seed, seconds):
    """One benchmark process on `tree`: its per-workload counts and metrics."""
    # the command's Python script, run by this interpreter
    cmd = [sys.executable, *command[1:], "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {done.returncode}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    saved = json.loads((Path(tree) / "perfbench" / "results" /
                        f"result-all-seed{seed}-trace0.json").read_text())
    workloads = {name: {"attempted": int(a), "failed": int(f),
                        "host_slowness": saved["unscaled"][name]["host_slowness"]}
                 for name, a, f in WORKLOAD_LINE.findall(done.stdout)}
    return {"workloads": workloads, "correct": summary["correct"],
            "metrics": {k: m["value"] for k, m in summary["metrics"].items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    p.add_argument("--seconds", type=float, default=None,
                   help="each run's --seconds (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--out", required=True, help="JSON file the session is appended to")
    p.add_argument("--null", action="store_true",
                   help="run the parent against a second extraction of itself")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, tree in trees.items():
            tree.mkdir()
            if side == "change" and not args.null:
                extract_worktree(tree)
            else:
                extract(commit, tree)
        runs, order = [], []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(sides[0])
            pair = {side: run_side(trees[side], bench["command"], args.seed + i, seconds)
                    for side in sides}
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs} (seed {args.seed + i}, {sides[0]} first) done",
                  file=sys.stderr, flush=True)

    workloads = summarize(runs, bench["end_to_end"])
    session = {
        "parent": commit, "change": "null: a second extraction of the parent"
        if args.null else "the working tree, extracted",
        "command": [*bench["command"], "--seed", "S", "--seconds", str(seconds)],
        "cores": os.cpu_count(), "python": platform.python_version(),
        "seeds": [args.seed + i for i in range(args.pairs)], "first": order,
        "all_correct": all(r[s]["correct"] for r in runs for s in r),
        "claims": [f"{wl}.{m}" for wl, w in workloads.items()
                   for m, s in w["metrics"].items() if s["claim"]],
        "regressions": [f"{wl}.{m}" for wl, w in workloads.items()
                        for m, s in w["metrics"].items() if s["regression"]]
        + [f"{wl}.failed" for wl, w in workloads.items() if w["more_failed"]],
        "unresolved": [f"{wl}.{m}" for wl, w in workloads.items()
                       for m, s in w["metrics"].items() if s["unresolved"]],
        "workloads": workloads,
        "runs": runs,
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {"sessions": []}
    doc["sessions"].append(session)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({k: session[k] for k in ("claims", "regressions", "unresolved")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
