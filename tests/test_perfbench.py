"""The benchmark's workloads, one task each, with their own output checks.

`perfbench/workloads.py` is imported as it is, and each workload runs one
task on the inputs of seed 0, task 0, in process.  A change that would make
the benchmark report incorrect outputs (the certify references included)
fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

import mfg_lab.stability as stability
from mfg_lab.perturb import spawn_rngs

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["picard_1d", "branch_pair_1d", "certify"])
def test_workload_task_passes_its_check(workloads, name):
    wl = workloads.WORKLOADS[name]()
    inputs = wl.make_inputs(spawn_rngs(0, 1)[0], 0)
    out = wl.run(inputs)
    assert wl.check(inputs, out)
    if name == "certify":
        # perfbench/tracing.py splits certificate time by this prefix and
        # traces scipy's LU through `stability.spla`
        assert all(not c.method.startswith("dense") for c in out[2].values())
        assert hasattr(stability, "spla")
