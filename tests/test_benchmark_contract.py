"""The benchmark's contract with the package, checked from outside
`perfbench/`, which these tests read and never change: every name the tracer
wraps still exists where the tracer looks it up, each workload's first
operation still passes the workload's own check, and a traced run of each
workload completes with every operation checked. So a renamed function, a
broken workload or a tracer that fails on a call fails here."""
import importlib
import json
import sys

import pytest

from perfbench import tracing
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("module, attr, span", tracing.WRAPPED,
                         ids=[f"{module}.{attr}" for module, attr, _ in tracing.WRAPPED])
def test_traced_name_is_the_function_its_span_names(module, attr, span):
    looked_up = getattr(importlib.import_module(f"uavloc.{module}"), attr)
    owner, name = span.split(".")
    # the span is charged to its owner's layer, so the name must not be a copy
    assert looked_up is getattr(importlib.import_module(f"uavloc.{owner}"), name)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_first_operation_passes_its_check(name):
    workload = WORKLOADS[name]
    first = workload.make_inputs(0)[0]
    assert workload.check(first, workload.run(first)) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_round_passes_every_check(name, tmp_path, monkeypatch, capsys):
    # importing perfbench.run pins the BLAS thread counts in the environment;
    # setenv first, so that they are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    from perfbench import run
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    # --seconds 0 runs one round, the least a run makes
    assert run.main(["--workload", name, "--seconds", "0", "--trace", "1"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
