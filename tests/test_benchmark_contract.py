"""The benchmark's contract with the package, checked from outside
`perfbench/`, which these tests read and never change: every name the tracer
wraps still exists where the tracer looks it up, and each workload's first
operation still passes the workload's own check. So a renamed function or a
broken workload fails here, not only in a traced benchmark run."""
import importlib

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
