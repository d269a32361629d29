"""Shared fixtures and the acceptance report hook.

Heavy solves are session-scoped so the suite computes each base solution
once.  Acceptance tests append one line per criterion, with its wall
seconds, to ACCEPTANCE_LINES; the terminal-summary hook prints them, and
writes acceptance_report.txt only when every criterion recorded a line, so a
partial run (-k, or a criterion that errors before recording) leaves the last
full report in place.  The seconds stay in the terminal: the report holds
only what the code determines, so a run on unchanged code rewrites it byte
for byte.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from mfg_lab.mfg import solve_picard
from mfg_lab.models import builtin_quadratic
from mfg_lab.potential import ADMISSIBLE_DEFECT_TOL

# property tests draw the same examples on every run and keep no example
# database; the cache hypothesis still writes (source constants) goes to a
# temporary directory removed at exit, not to .hypothesis/
settings.register_profile("mfg_lab", deadline=None, derandomize=True, database=None)
settings.load_profile("mfg_lab")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mfg_lab-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

ACCEPTANCE_LINES: list[tuple[str, float]] = []
N_CRITERIA = 12


def record_acceptance(line: str, seconds: float) -> None:
    ACCEPTANCE_LINES.append((line, seconds))


def rng_from_seed(seed) -> np.random.Generator:
    """A Philox generator of one seed, the bit generator `spawn_rngs` uses."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def is_admissible(pair) -> bool:
    """The pair's continuity defect is within the discrete admissible class's
    tolerance."""
    return pair.continuity_defect <= ADMISSIBLE_DEFECT_TOL


def sample_xp(dim: int, samples: int, seed, p_max: float) -> tuple[tuple, np.ndarray]:
    """Seeded samples of x on the unit torus and p with |p_i| <= p_max:
    (x as a tuple of ``dim`` coordinate arrays, p of shape (samples, dim))."""
    rng = np.random.default_rng(seed)
    x = tuple(rng.uniform(0.0, 1.0, size=samples) for _ in range(dim))
    return x, rng.uniform(-p_max, p_max, size=(samples, dim))


def legendre_transform_newton(ham, x, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner maximization of -p.q - H(x,p) by Newton, at most 30 steps, until
    the stationarity residual is below 1e-12; returns (p*, L values).  An
    oracle for the closed-form conjugate that uses H and its derivatives only."""
    p = np.zeros_like(q)
    for _ in range(30):
        r = q + ham.grad_p(x, p)  # stationarity residual (negated)
        if np.max(np.abs(r)) < 1e-12:
            break
        p = p - np.linalg.solve(ham.hess_pp(x, p), r[..., None])[..., 0]
    return p, -np.sum(p * q, axis=-1) - ham.value(x, p)


def legendre_defects(ham, dim: int, samples: int, seed) -> tuple[float, float, float]:
    """(conjugacy, Hessian product, argmax) defects of the closed-form L of
    H = a(x)|p|^2/2 at sampled x and |p_i| <= 5, against the Newton oracle.

    Checks L(x,q) + H(x,p*) + p*.q = 0 at the maximizer p* for q = -D_pH(x,p),
    D2_qqL(x,q) @ D2_ppH(x,p) = I with D2_qqL = I/a, and p* = -D_qL(x,q).
    """
    x, p = sample_xp(dim, samples, seed, p_max=5.0)
    q = -ham.grad_p(x, p)
    p_star, _ = legendre_transform_newton(ham, x, q)
    lvals = ham.lagrangian(x, q)
    conj = np.max(np.abs(lvals + ham.value(x, p_star) + np.sum(p_star * q, axis=-1)))
    hess_qq = np.eye(dim) / np.asarray(ham.coefficient(x))[..., None, None]
    prod = np.einsum("...ij,...jk->...ik", hess_qq, ham.hess_pp(x, p))
    argmax = np.max(np.abs(p_star + ham.lagrangian_grad(x, q)))
    return float(conj), float(np.max(np.abs(prod - np.eye(dim)))), float(argmax)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line, seconds in ACCEPTANCE_LINES:
        terminalreporter.write_line(f"{line} [{seconds:.1f} s]")
    if len(ACCEPTANCE_LINES) < N_CRITERIA:
        terminalreporter.write_line(
            f"{len(ACCEPTANCE_LINES)}/{N_CRITERIA} criteria ran: "
            "acceptance_report.txt left unchanged"
        )
        return
    report = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
    lines = "".join(f"{line}\n" for line, _ in ACCEPTANCE_LINES)
    report.write_text(lines, encoding="utf-8")


@pytest.fixture(scope="session")
def monotone_model():
    return builtin_quadratic(coupling="monotone_local", T=0.5, m0="cosine")


@pytest.fixture(scope="session")
def monotone_grid(monotone_model):
    return monotone_model.make_grid(32, 48)


@pytest.fixture(scope="session")
def monotone_solution(monotone_model, monotone_grid):
    sol = solve_picard(
        monotone_model, monotone_grid, damping=0.5, tol=1e-12, max_iter=500
    )
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def decoupled_model():
    return builtin_quadratic(0.0, coupling="none", T=0.5, m0="cosine")


@pytest.fixture(scope="session")
def decoupled_solution(decoupled_model, monotone_grid):
    sol = solve_picard(
        decoupled_model, monotone_grid, damping=1.0, tol=1e-13, max_iter=20
    )
    assert sol.converged
    return sol


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
