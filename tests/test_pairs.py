"""The statistics of tools/pairs.py on fixed synthetic pairs, and its extraction
of the working tree on a throwaway git repository; no benchmark runs."""
import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT = [100.0, 96.0, 104.0, 98.0, 102.0, 99.0, 101.0, 97.0, 103.0, 100.0]


def test_quartiles_are_the_inclusive_quantiles():
    q1, _, q3 = statistics.quantiles(PARENT, n=4, method="inclusive")
    assert pairs.quartiles(PARENT) == pytest.approx((q1, statistics.median(PARENT), q3))
    assert pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_identical_sides_give_no_claim_and_no_regression():
    s = pairs.compare(PARENT, list(PARENT), "higher", 0.2)
    assert s["change_wins"] == 0 and not s["claim"] and not s["regression"]
    assert s["change_minus_parent_pct"] == 0.0


@pytest.mark.parametrize("better, sign", [("higher", 1.0), ("lower", -1.0)])
def test_ten_of_ten_pairs_beyond_the_iqr_give_a_claim(better, sign):
    p1, _, p3 = pairs.quartiles(PARENT)
    change = [p + sign * 1.01 * (p3 - p1) for p in PARENT]
    s = pairs.compare(PARENT, change, better, 0.2)
    assert s["change_wins"] == 10 and s["claim"] and not s["regression"]
    # the same pairs read the other way are a loss, not a claim
    assert not pairs.compare(PARENT, change, {"higher": "lower", "lower": "higher"}[better],
                             0.2)["claim"]


def test_fewer_than_ten_pairs_give_no_claim():
    assert not pairs.compare(PARENT[:9], [p + 50.0 for p in PARENT[:9]], "higher", 0.2)["claim"]


def test_a_gap_within_the_iqr_gives_no_claim():
    p1, _, p3 = pairs.quartiles(PARENT)
    s = pairs.compare(PARENT, [p + 0.9 * (p3 - p1) for p in PARENT], "higher", 0.2)
    assert s["change_wins"] == 10 and not s["claim"]


def test_eight_of_ten_pairs_give_no_claim():
    change = [p + 50.0 for p in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1] - 1.0  # a tie and a loss
    s = pairs.compare(PARENT, change, "higher", 0.2)
    assert s["change_wins"] == 8 and not s["claim"]
    change[0] = PARENT[0] + 1.0
    assert pairs.compare(PARENT, change, "higher", 0.2)["claim"]  # 9 of 10


@pytest.mark.parametrize("better, factor, regression", [
    ("higher", 0.79, True), ("higher", 0.81, False), ("lower", 1.26, True),
    ("lower", 1.24, False), ("lower", 0.5, False)])
def test_a_median_worse_than_the_bound_is_a_regression(better, factor, regression):
    s = pairs.compare(PARENT, [p * factor for p in PARENT], better, 0.2 if better == "higher"
                      else 0.25)
    assert s["regression"] is regression


@pytest.mark.parametrize("better, sign", [("higher", 1.0), ("lower", -1.0)])
def test_a_spread_wider_than_the_bound_is_resolved_when_every_change_run_reads_better(
        better, sign):
    """PARENT's quartile spread is 3.5 % of its median, wider than a 2 % bound;
    a change whose every run reads better than every parent run resolves it."""
    change = [p + sign * 10.0 for p in PARENT]
    s = pairs.compare(PARENT, change, better, 0.02)
    assert not s["unresolved"] and not s["regression"]
    change[0] = PARENT[2] if better == "higher" else PARENT[1]  # ties the parent's best run
    assert pairs.compare(PARENT, change, better, 0.02)["unresolved"]


def _run(ops, failed=0, rss=True):
    metrics = {"w.ops_per_s": ops, "w.op_s_p50": 1.0 / ops, "w.op_s_p90": 1.2 / ops,
               "w.setup_s": 0.01}
    if rss:
        metrics["w.peak_rss_mb"] = 40.0
    return {"workloads": {"w": {"attempted": 100, "failed": failed, "host_slowness": 1.0}},
            "metrics": metrics}


def test_summary_marks_a_bound_breach_and_more_failed_operations():
    runs = [{"parent": _run(p), "change": _run(0.7 * p, failed=int(i == 3))}
            for i, p in enumerate(PARENT)]
    w = pairs.summarize(runs, END_TO_END)["w"]
    assert w["operations"] == {"parent": {"attempted": 1000, "failed": 0},
                               "change": {"attempted": 1000, "failed": 1}}
    assert w["more_failed"]
    assert {m for m, s in w["metrics"].items() if s["regression"]} == \
        {"ops_per_s", "op_s_p50", "op_s_p90"}
    assert not any(s["claim"] for s in w["metrics"].values())


def test_summary_compares_only_metrics_both_sides_report():
    runs = [{"parent": _run(p, rss=False), "change": _run(p, rss=False)} for p in PARENT]
    w = pairs.summarize(runs, END_TO_END)["w"]
    assert sorted(w["metrics"]) == ["op_s_p50", "op_s_p90", "ops_per_s", "setup_s"]
    assert not w["more_failed"]
    assert not any(s["claim"] or s["regression"] for s in w["metrics"].values())


def test_the_change_side_is_the_working_tree_without_what_git_ignores(tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "into"
    (repo / "pkg").mkdir(parents=True)
    into.mkdir()
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "tracked.py").write_text("A = 1\n")
    (repo / "gone.py").write_text("B = 1\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "tracked.py").write_text("A = 2\n")  # modified, not staged
    (repo / "gone.py").unlink()  # tracked, deleted on disk
    (repo / "pkg" / "new.py").write_text("C = 3\n")  # untracked
    (repo / "pkg" / "run.log").write_text("ignored\n")
    pairs.extract_worktree(into, root=repo)
    got = {str(p.relative_to(into)): p.read_text() for p in into.rglob("*") if p.is_file()}
    assert got == {".gitignore": "*.log\n", "pkg/tracked.py": "A = 2\n", "pkg/new.py": "C = 3\n"}
