"""tools/outputs.py's one-tree pass on this working tree: every output it
covers is hashed, under the names the tool documents."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_outputs_hashes_every_covered_output():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "outputs.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [re.fullmatch(r"([0-9a-f]{64})  (\S+)", line) for line in done.stdout.splitlines()]
    assert all(lines)
    names = [m[2] for m in lines]
    files = ["crb_history.csv", "measurements.csv", "metrics.json", "trajectory.csv", "users.csv"]
    want = []
    for case in ("readme", "variant"):
        for run in ("greedy-ideal", "greedy-nr", "fixed-ideal", "fixed-nr"):
            want += [f"simulate/{case}/{run}", *(f"simulate/{case}/{run}/{f}" for f in files),
                     f"solve/{case}/{run}", f"solve/{case}/{run}/solution.json"]
        want += [f"plan/{case}", f"crb/{case}", f"crb/{case}/crb_history.csv",
                 f"mc/{case}/greedy-ideal", f"mc/{case}/fixed-nr"]
    for seed in (1, 2, 3):
        want += [f"plan_queries/seed{seed}/waypoints",
                 *(f"online_greedy_nr/seed{seed}/{what}"
                   for what in ("flights", "estimates", "crb_histories"))]
    assert names == want
    # the README scenario's greedy and fixed simulations differ, as do the two scenarios
    digests = dict(m.groups()[::-1] for m in lines)
    assert len({digests[f"simulate/{case}/{run}/trajectory.csv"] for case in ("readme", "variant")
                for run in ("greedy-ideal", "fixed-ideal")}) == 4
