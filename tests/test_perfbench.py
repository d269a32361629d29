"""The benchmark's workloads, one task each, with their own output checks.

`perfbench/workloads.py` is imported as it is, and each workload runs one
task on the inputs of seed 0, task 0, in process, plain and under the
tracer of `perfbench/tracing.py`.  A change that would make the benchmark
report incorrect outputs (the certify references included), or that renames
a name the traced run rebinds, fails here first.
"""

import importlib.util
import math
from pathlib import Path

import pytest

import mfg_lab.stability as stability
from mfg_lab.models import MfgModel
from mfg_lab.perturb import spawn_rngs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["picard_1d", "branch_pair_1d", "certify"]


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", "workloads.py")


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", "tracing.py")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_task_passes_its_check(workloads, name):
    wl = workloads.WORKLOADS[name]()
    inputs = wl.make_inputs(spawn_rngs(0, 1)[0], 0)
    out = wl.run(inputs)
    assert wl.check(inputs, out)
    if name == "certify":
        # perfbench/tracing.py splits certificate time by this prefix and
        # rebinds `stability.spla` (to wrap a sparse LU that no solve calls)
        assert all(not c.method.startswith("dense") for c in out[2].values())
        assert hasattr(stability, "spla")


# counts per workload that the tracer sees only if its wrappers are called;
# picard_1d's pin one Kolmogorov sweep per round (6), none for the heat flow
# that starts the solve; branch_pair_1d's pin the search's hand-over: 3
# fictitious-play rounds, and 14 best responses in all (3 rounds, the
# symmetric branch's 1 and 10 polish rounds at full weight)
TRACED_COUNTS = {
    "picard_1d": {"mfg.picard_solves": 1, "pde.kolmogorov_sweeps": 6},
    "branch_pair_1d": {
        "nonuniqueness.pairs_found_ratio": 1.0,
        "fictitious_play.rounds": 3,
        "pde.hjb_sweeps": 14,
    },
    "certify": {"stability.certificates": 5},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_workload_task_passes_its_check(workloads, tracing, name):
    # the traced run rebinds package names at every import site and wraps
    # the model's Hamiltonian and coupling fields through dataclasses.replace
    wl = workloads.WORKLOADS[name]()
    inputs = wl.make_inputs(spawn_rngs(0, 1)[0], 0)
    assemble = stability.assemble_operator
    tracer = tracing.Tracer()
    tracer.begin_task(0)
    tracer.install([workloads])
    try:
        traced = {
            k: tracer.instrument_model(v) if isinstance(v, MfgModel) else v
            for k, v in inputs.items()
        }
        out = wl.run(traced)
    finally:
        tracer.uninstall()
    assert stability.assemble_operator is assemble
    assert wl.check(inputs, out)
    layers = tracer.end_task(1.0)
    assert all(math.isfinite(v) for v in layers.values())
    want = TRACED_COUNTS[name]
    assert {metric: layers[metric] for metric in want} == want
