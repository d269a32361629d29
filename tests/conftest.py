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
