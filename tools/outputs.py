"""One sha256 per program output, to check that a change keeps every output byte.

    python3 tools/outputs.py [--parent REV]

Prints "<sha256>  <name>" for each output of this working tree. With
--parent, REV is extracted by `git archive REV | tar -x` (tools/pairs.py's
`extract`) into a temporary directory and hashed the same way; every output
that differs, or that only one side has, is named on stderr, and the exit
code is 1 (0 when all match). Each tree is hashed by one fresh interpreter
with that tree's `src` and root first on its path, run as
`python3 tools/outputs.py --tree DIR`, which prints the tree's hashes as JSON.

The outputs:
- `uavloc simulate` (stdout with the exit code and stderr, and each written
  file), greedy/fixed x ideal/NR, on the README scenario and on a variant with
  a building, exponential noise with a drift ramp and NLOS excess, and
  `solver.per_distance_weights: true`;
- `uavloc solve --json --out` of each simulated log (stdout and
  `solution.json`), `uavloc plan` and `uavloc crb` on fixed inputs (`crb`'s
  stdout, and the `crb_history.csv` of a second run with `--out`), and
  `uavloc mc --runs 2 --json`, on both scenarios;
- the benchmark's `plan_queries` waypoints and `online_greedy_nr` flights,
  estimates and CRB histories of seeds 1-3 (`perfbench.workloads`, read only).
The CLI runs in-process through `uavloc.cli.main`, inside a fresh temporary
directory with relative paths, so no path of this host enters an output.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from pairs import ROOT, extract

README_SCENARIO = """\
users: [[10.0, -5.0], [-20.0, 15.0]]
uav_start: [0.0, 0.0, 30.0]
uav_terminal: [40.0, 0.0, 30.0]
mission_steps: 25
d_max: 5.0
delta_keep: 2.0
sigma_gps: 1.0
toa_noise: {kind: constant, sigma0: 1.25e-8}
seed: 7
solver: {solve_every: 5}
planner: {headings: 8}
"""

# a third user whose links from the track cross the building
VARIANT_SCENARIO = """\
users: [[10.0, -5.0], [-20.0, 15.0], [5.0, -40.0]]
uav_start: [0.0, 0.0, 30.0]
uav_terminal: [40.0, 0.0, 30.0]
mission_steps: 25
sigma_gps: 1.0
toa_noise: {kind: exponential, sigma0: 1.0e-8, amp: 2.0e-9, scale: 60.0,
            drift_rate: 1.0e-9, drift_reset_period: 4, nlos_scale: 5.0e-9}
buildings: [{min: [-8.0, -30.0, 0.0], max: [20.0, -20.0, 25.0]}]
seed: 11
solver: {solve_every: 5, per_distance_weights: true}
"""

PLAN_STATE = {"step": 4, "pos": [12.0, 3.0, 30.0],
              "user_estimates": [[11.0, -4.0], [-18.0, 14.0], [6.0, -38.0]],
              "blocks": [[[2.0e-3, 4.0e-4], [4.0e-4, 1.0e-3]],
                         [[5.0e-4, -1.0e-4], [-1.0e-4, 8.0e-4]],
                         [[1.0e-4, 0.0], [0.0, 3.0e-4]]]}

TRAJECTORY = "step,x,y,z\n" + "".join(f"{n},{5.0 * (n - 1)},{(n % 3) * 1.5},30.0\n"
                                        for n in range(1, 10))
USERS = "user_id,x,y\n1,10.0,-5.0\n2,-20.0,15.0\n3,5.0,-40.0\n"

SEEDS = (1, 2, 3)


def _digest(*parts) -> str:
    """sha256 of the parts: str and bytes as they are, arrays as their shape and float64 bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            a = np.ascontiguousarray(np.asarray(part, dtype=float))
            h.update(repr(a.shape).encode())
            part = a.tobytes()
        h.update(part)
    return h.hexdigest()


def _run_cli(argv) -> str:
    """The digest of the exit code, stdout and stderr of uavloc.cli.main(argv)."""
    from uavloc.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _digest(str(code), "\0", out.getvalue(), "\0", err.getvalue())


def _state_json(k: int) -> str:
    """PLAN_STATE's first k users as `uavloc plan`'s state JSON, its fim dense."""
    fim = [[0.0] * (2 * k) for _ in range(2 * k)]
    for j, block in enumerate(PLAN_STATE["blocks"][:k]):
        for a in range(2):
            for b in range(2):
                fim[2 * j + a][2 * j + b] = block[a][b]
    return json.dumps({"step": PLAN_STATE["step"], "pos": PLAN_STATE["pos"], "fim": fim,
                       "user_estimates": PLAN_STATE["user_estimates"][:k]})


def cli_outputs() -> dict:
    """The CLI's outputs, run in the current directory."""
    hashes = {}
    Path("trajectory.csv").write_text(TRAJECTORY)
    for case, text, k in (("readme", README_SCENARIO, 2), ("variant", VARIANT_SCENARIO, 3)):
        Path(f"{case}.yaml").write_text(text)
        Path(f"{case}-state.json").write_text(_state_json(k))
        Path(f"{case}-users.csv").write_text("".join(USERS.splitlines(True)[:k + 1]))
        scenario = ["--scenario", f"{case}.yaml"]
        for mode in ("greedy", "fixed"):
            for toa in ("ideal", "nr"):
                name, out = f"{case}/{mode}-{toa}", f"{case}-{mode}-{toa}"
                hashes[f"simulate/{name}"] = _run_cli(
                    ["simulate", *scenario, "--out", out, "--mode", mode, "--toa", toa])
                for f in sorted(os.listdir(out)):
                    hashes[f"simulate/{name}/{f}"] = _digest(Path(out, f).read_bytes())
                hashes[f"solve/{name}"] = _run_cli(
                    ["solve", *scenario, "--log", f"{out}/measurements.csv", "--json",
                     "--out", f"{out}-solve"])
                hashes[f"solve/{name}/solution.json"] = _digest(
                    Path(f"{out}-solve", "solution.json").read_bytes())
        hashes[f"plan/{case}"] = _run_cli(["plan", *scenario, "--state", f"{case}-state.json"])
        crb = ["crb", *scenario, "--trajectory", "trajectory.csv", "--users", f"{case}-users.csv"]
        hashes[f"crb/{case}"] = _run_cli(crb)
        _run_cli([*crb, "--out", f"{case}-crb"])
        hashes[f"crb/{case}/crb_history.csv"] = _digest(
            Path(f"{case}-crb", "crb_history.csv").read_bytes())
        for mode, toa in (("greedy", "ideal"), ("fixed", "nr")):
            hashes[f"mc/{case}/{mode}-{toa}"] = _run_cli(
                ["mc", *scenario, "--runs", "2", "--mode", mode, "--toa", toa, "--json"])
    return hashes


def benchmark_outputs() -> dict:
    """The outputs of the benchmark's plan_queries and online_greedy_nr operations."""
    from perfbench import workloads
    hashes = {}
    plan, online = workloads.PlanQueries(), workloads.OnlineGreedyNr()
    for seed in SEEDS:
        hashes[f"plan_queries/seed{seed}/waypoints"] = _digest(
            [plan.run(st) for st in plan.make_inputs(seed)])
        results = [online.run(s) for s in online.make_inputs(seed)]
        hashes[f"online_greedy_nr/seed{seed}/flights"] = _digest(
            *(r.planned for r in results))
        hashes[f"online_greedy_nr/seed{seed}/estimates"] = _digest(
            *(p for r in results for p in (r.user_estimates, r.uav_estimates, r.retained_steps)))
        hashes[f"online_greedy_nr/seed{seed}/crb_histories"] = _digest(
            *(r.crb_history for r in results))
    return hashes


def tree_outputs(tree: Path) -> dict:
    """Every output of the package in `tree`, which must be the one imported."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import uavloc
    if Path(uavloc.__file__).resolve().parent != (tree / "src" / "uavloc").resolve():
        sys.exit(f"error: imported {uavloc.__file__}, not the package of {tree}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        return cli_outputs() | benchmark_outputs()


def hashes_of(tree: Path) -> dict:
    """tree_outputs of `tree`, taken by a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--tree", str(tree)], cwd=tree,
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        sys.exit(f"error: hashing the outputs of {tree} exited {done.returncode}")
    return json.loads(done.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision whose outputs this tree's must match")
    p.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.tree is not None:  # the one-tree pass, in the interpreter hashing that tree
        print(json.dumps(tree_outputs(args.tree.resolve())))
        return 0
    change = hashes_of(ROOT)
    for name, digest in change.items():
        print(f"{digest}  {name}")
    if args.parent is None:
        return 0
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        extract(commit, tmp)
        parent = hashes_of(Path(tmp))
    differ = [name for name in {**parent, **change} if parent.get(name) != change.get(name)]
    for name in differ:
        print(f"differs from {args.parent}: {name}", file=sys.stderr)
    print(f"{len(change)} outputs, {len(differ)} differ from {args.parent} ({commit[:12]})",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
