"""scipy stays out of a process until an operator is factored.

Every process pays for the modules it imports before its first task.  Only
the block factorization of `stability` needs LAPACK, so importing the
package, the benchmark's workloads, the CLI, a Picard solve, J, a
fictitious-play round and the branch search load no scipy module; a
certificate loads scipy.linalg and still no scipy.sparse.  The checks run
in one fresh interpreter, since this test process has imported scipy long
before.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the steps one fresh interpreter runs, printing the scipy modules it has
# loaded after each as one JSON line
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


# as perfbench/run.py's setup(): the package, the workloads, each workload built
import mfg_lab
import workloads
for make in workloads.WORKLOADS.values():
    make()
import mfg_lab.cli
import mfg_lab.fictitious_play
import mfg_lab.nonuniqueness
from mfg_lab.mfg import solve_picard
from mfg_lab.models import builtin_quadratic
from mfg_lab.potential import AdmissiblePair, evaluate_J

model = builtin_quadratic(coupling="monotone_local", m0="cosine", T=0.5)
base = solve_picard(model, model.make_grid(16, 16), damping=0.5, tol=1e-11)
assert base.converged
assert evaluate_J(model, AdmissiblePair.from_solution(base)).finite
# the branch_pair_1d path: a fictitious-play round, then the branch search
# with its full-weight Picard polish
assert mfg_lab.fictitious_play.fp_step(
    mfg_lab.fictitious_play.fp_start(model, model.make_grid(16, 16))
).n == 1
anti = builtin_quadratic(theta=60.0, coupling="antimonotone_symmetric", T=1.0)
mfg_lab.nonuniqueness.make_branch_pair(anti, anti.make_grid(16, 64), tol=1e-6)
print(json.dumps(loaded()))

from mfg_lab import stability

assert stability.certify_stability(model, base, 0).verdict == "STABLE"
print(json.dumps(loaded()))
print(json.dumps([stability.sp.__name__, stability.spla.__name__]))
"""


@pytest.fixture(scope="module")
def stages():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_solve_and_j_load_no_scipy(stages):
    assert stages[0] == []


def test_a_certificate_loads_lapack_but_not_scipy_sparse(stages):
    after_certificate, names = stages[1], stages[2]
    assert "scipy.linalg" in after_certificate
    assert not [m for m in after_certificate if m.startswith("scipy.sparse")]
    # the names perfbench/tracing.py reads still resolve, on first access
    assert names == ["scipy.sparse", "scipy.sparse.linalg"]
