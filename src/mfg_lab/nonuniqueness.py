"""Two distinct equilibria of one game: the symmetric branch, a
symmetry-broken branch, and the explicit competitor that witnesses
non-minimality of the symmetric one.

Mechanism (d = 1, reflection x -> -x; d = 2 reflects x1): the running
potential theta*(1 - S(m)^2)^2 with S the first odd sine moment is
reflection-invariant yet cheapest for lopsided densities, so for theta and T
large enough the reflection-symmetric equilibrium stops being a minimizer of
the cost functional and a second, asymmetric equilibrium appears.  The sweep
searches (theta, T) cells for a residual-verified pair; the parameters where
this happens are experiment outputs, not assertions.

Both branches come from the shared solvers and no iteration of their own:
the symmetric one is `solve_picard` from the symmetric m0, the broken one is
fictitious play from a lopsided belief, which reaches the basin of the stable
branch by round COLLAPSE_CHECK_ROUND (3), polished from there by `solve_picard`
at full Anderson weight: the branch is stable, so near it the undamped
best-response map already contracts, and weight 1/2 would only slow each of
its modes lambda to (1 + lambda)/2.  A polish that does not converge leaves
the cell not-found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fictitious_play import fp_start, fp_step
from .grid import TorusGrid, gradient, laplacian_symbol, strict_json, sup_norm, write_lines
from .mfg import MfgSolution, solve_picard
from .models import MfgModel, _sine_moment, builtin_quadratic
from .pde import SolverError
from .potential import AdmissiblePair, JBreakdown, evaluate_J

__all__ = [
    "reflect_values",
    "reflection_defect",
    "find_symmetric_branch",
    "find_asymmetric_branch",
    "BranchPair",
    "make_branch_pair",
    "build_competitor",
    "sweep_nonuniqueness",
    "SweepResult",
]


def reflect_values(values: np.ndarray) -> np.ndarray:
    """Pushforward by x1 -> -x1 (mod 1) of a stack of slices (K+1, *spatial):
    x1 is array axis 1."""
    n = values.shape[1]
    idx = (-np.arange(n)) % n
    return np.take(values, idx, axis=1)


def reflection_defect(values: np.ndarray) -> float:
    return sup_norm(values - reflect_values(values))


def find_symmetric_branch(model: MfgModel, grid: TorusGrid) -> MfgSolution:
    """The reflection-symmetric equilibrium: `solve_picard` from a symmetric m0.

    For a reflection-invariant game the forward-backward map sends symmetric
    beliefs to symmetric best responses, and every Picard belief is a linear
    combination of those, so the iterates stay symmetric up to roundoff; no
    projection is applied, and `reflection_defect` of the result measures
    what roundoff left.  For `antimonotone_symmetric` the source vanishes on
    symmetric densities, so u = 0 and m is the heat flow of m0: the first
    round returns it.
    """
    m0 = model.initial_density_slice(grid)
    if reflection_defect(m0[None, ...]) > 1e-10:
        raise ValueError("symmetric branch requires a reflection-symmetric m0")
    return solve_picard(model, grid, m0=m0, tol=1e-11, max_iter=400)


def asymmetric_initial_belief(grid: TorusGrid) -> np.ndarray:
    """Belief 1 + 0.8 sin(2 pi x1), normalized: mass shifted toward the
    sine-favored region (x1 = 1/4)."""
    coords = grid.coordinates()
    profile = 1.0 + 0.8 * np.sin(2.0 * np.pi * coords[0])
    profile = profile / (grid.cell_volume * profile.sum())
    return np.broadcast_to(profile, (grid.n_time + 1, *grid.spatial_shape)).copy()


# reflection defect below which a candidate counts as the symmetric branch
SEPARATION_FLOOR = 1e-2
# the asymmetric search's one decision round (or fp_rounds, if fewer): a sine
# moment below COLLAPSE_MOMENT there is not-found, any other flow is polished.
# Best responses per search on N=24, K=128, T=1, theta = 48..72, polished at
# weight 1, by hand-over round: 29.0 at 20, 19.2 at 10, 14.6 at 5, 13.6 at 4,
# 12.9 at 3, 12.0 at 2, 11.9 at 1, every asymmetric m within 2e-12 of round
# 20's.  Earlier rounds save under 1 more and no criterion-09 sweep time,
# and leave a larger residual on its best cell (4.8e-10 at 2, 3.3e-10 at 3).
COLLAPSE_CHECK_ROUND = 3
COLLAPSE_MOMENT = 0.02


def find_asymmetric_branch(
    model: MfgModel, grid: TorusGrid, tol: float = 1e-8, fp_rounds: int = 150
) -> tuple[Optional[MfgSolution], str]:
    """Fictitious play from an asymmetric belief, polished by `solve_picard`;
    the polished solution, or None and the reason it was not found.

    Fictitious play runs min(fp_rounds, COLLAPSE_CHECK_ROUND) rounds.  A
    collapsed sine moment then reports convergence back to the symmetric
    branch as not-found (that outcome steers the sweep), never as an error;
    any other flow starts the polish, at mixing weight 1.  This function
    checks the collapse, the polish's convergence and its residuals against
    tol; the separation from the symmetric branch is `make_branch_pair`'s.
    """
    if fp_rounds < 1:
        raise ValueError(f"fp_rounds must be at least 1, got {fp_rounds}")
    try:
        state = fp_start(model, grid, mu0=asymmetric_initial_belief(grid))
        for _ in range(min(fp_rounds, COLLAPSE_CHECK_ROUND)):
            state = fp_step(state)
        if np.max(np.abs(_sine_moment(grid, state.last.m)[0])) < COLLAPSE_MOMENT:
            return None, "converged to the symmetric branch"
        polished = solve_picard(
            model,
            grid,
            init_m=state.last.m,
            damping=1.0,
            tol=min(tol * 1e-2, 1e-10),
            max_iter=400,
        )
    except SolverError as exc:
        # a transport blow-up at these parameters is a not-found cell,
        # recorded so the sweep can steer around it
        return None, f"solver failure: {exc}"
    if not polished.converged:
        return None, f"polish did not converge in {polished.iterations} rounds"
    resid = max(polished.residuals["hjb"], polished.residuals["kolmogorov"])
    if resid > tol:
        return None, f"residual {resid:.2e} above {tol:.0e}"
    return polished, "ok"


@dataclass
class BranchPair:
    symmetric: MfgSolution
    asymmetric: MfgSolution
    separation: float
    j_symmetric: JBreakdown
    j_asymmetric: JBreakdown
    theta: float
    horizon: float
    reflection_defect_symmetric: float
    reflection_defect_asymmetric: float

    def summary(self) -> dict:
        return {
            "theta": self.theta,
            "horizon": self.horizon,
            "separation": self.separation,
            "j_symmetric": self.j_symmetric.total,
            "j_asymmetric": self.j_asymmetric.total,
            "reflection_defect_symmetric": self.reflection_defect_symmetric,
            "reflection_defect_asymmetric": self.reflection_defect_asymmetric,
            "residuals_symmetric": self.symmetric.residuals,
            "residuals_asymmetric": self.asymmetric.residuals,
        }

    def to_json(self) -> str:
        return strict_json(self.summary())


def make_branch_pair(
    model: MfgModel, grid: TorusGrid, tol: float = 1e-8, fp_rounds: int = 150
) -> tuple[Optional[BranchPair], str]:
    """The symmetric branch, the asymmetric search and, when it is found, the
    pair with its separation and J values; otherwise None and the reason.

    `find_asymmetric_branch` checks its own solution's residuals; this
    function checks the separation: an asymmetric solution whose reflection
    defect is below max(10 x the symmetric branch's, SEPARATION_FLOOR) is
    the symmetric branch again, and not-found.  tol must be positive: at
    tol <= 0 the polish target min(tol * 1e-2, 1e-10) is 0, which no polish
    reaches.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sym = find_symmetric_branch(model, grid)
    asym, reason = find_asymmetric_branch(model, grid, tol=tol, fp_rounds=fp_rounds)
    if asym is None:
        return None, reason
    sym_defect = reflection_defect(sym.m.values)
    asym_defect = reflection_defect(asym.m.values)
    if asym_defect < max(10.0 * sym_defect, SEPARATION_FLOOR):
        return None, "converged to the symmetric branch"
    pair = BranchPair(
        symmetric=sym,
        asymmetric=asym,
        separation=sup_norm(sym.m.values - asym.m.values),
        j_symmetric=evaluate_J(model, AdmissiblePair.from_solution(sym)),
        j_asymmetric=evaluate_J(model, AdmissiblePair.from_solution(asym)),
        theta=model.theta,
        horizon=grid.T - grid.t0,
        reflection_defect_symmetric=sym_defect,
        reflection_defect_asymmetric=asym_defect,
    )
    return pair, "ok"


# ---------------------------------------------------------------------------
# explicit competitor
# ---------------------------------------------------------------------------


def _poisson_solve(grid: TorusGrid, rhs: np.ndarray) -> np.ndarray:
    """Periodic -Lap phi = rhs for zero-mean rhs, via the stencil symbol.

    Modes in the stencil kernel (zero mode and, for the wide stencil, the
    Nyquist modes) are projected out; smooth rhs carries only roundoff there.
    """
    lam = laplacian_symbol(grid)
    axes = tuple(range(grid.dim))
    rhs_hat = np.fft.fftn(rhs, axes=axes)
    denom = -lam
    phi_hat = np.where(np.abs(denom) > 1e-10, rhs_hat / np.where(denom == 0, 1.0, denom), 0.0)
    return np.fft.ifftn(phi_hat, axes=axes).real


def holding_rate(model: MfgModel, grid: TorusGrid, mbar: np.ndarray) -> float:
    """Cost rate of holding the profile mbar stationary: kinetic + potential."""
    coords = grid.coordinates()
    w = gradient(grid, mbar)
    q = w / mbar[..., None]
    kin = grid.cell_volume * float(np.sum(mbar * model.lagrangian.value(coords, q)))
    return kin + float(model.coupling.F(grid, mbar))


def best_holding_profile(model: MfgModel, grid: TorusGrid) -> tuple[np.ndarray, float]:
    """Sine profile 1 + a sin(2 pi x1) minimizing the holding rate over a."""
    sine = np.sin(2.0 * np.pi * grid.coordinates()[0])
    ones = np.ones(grid.spatial_shape)
    best, best_rate = ones / (grid.cell_volume * ones.sum()), holding_rate(model, grid, ones)
    for a in np.linspace(0.05, 0.95, 19):
        mbar = 1.0 + a * sine
        mbar = mbar / (grid.cell_volume * mbar.sum())
        rate = holding_rate(model, grid, mbar)
        if rate < best_rate:
            best, best_rate = mbar, rate
    return best, best_rate


def build_competitor(model: MfgModel, grid: TorusGrid) -> AdmissiblePair:
    """Admissible pair connecting m0 to the best holding profile mbar
    (`best_holding_profile`) in unit time.

    On [t0, t0+1], m interpolates linearly between m0 and mbar with flux
    D m^{k+1} - D phi, where -Lap phi = m0 - mbar; afterwards the pair sits
    at (mbar, D mbar).  Both segments satisfy the discrete continuity
    equation exactly because the divergence of a gradient is the scheme's
    Laplacian.  Requires the horizon to exceed the unit transition time.
    """
    if grid.T - grid.t0 <= 1.0:
        raise ValueError("competitor needs a horizon longer than the unit transition")
    k1 = grid.time_index(grid.t0 + 1.0)
    m0 = model.initial_density_slice(grid)
    mbar, _ = best_holding_profile(model, grid)
    phi = _poisson_solve(grid, m0 - mbar)
    dphi = gradient(grid, phi)

    s = np.minimum(1.0, np.arange(grid.n_time + 1) / k1)
    s = s.reshape(-1, *(1,) * grid.dim)
    m = (1.0 - s) * m0 + s * mbar
    w = np.empty((grid.n_time + 1, *grid.spatial_shape, grid.dim))
    w[:k1] = gradient(grid, m[1 : k1 + 1]) - dphi
    w[k1:] = gradient(grid, mbar)
    return AdmissiblePair.from_values(grid, m, w)


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    cells: list
    best: Optional[BranchPair]
    separation_change: Optional[float]

    def to_csv(self, path) -> None:
        lines = ["theta,horizon,found,separation,j_symmetric,j_asymmetric,reason"]
        for c in self.cells:
            lines.append(
                f"{c['theta']!r},{c['horizon']!r},{int(c['found'])},"
                f"{c['separation']!r},{c['j_symmetric']!r},{c['j_asymmetric']!r},"
                f"{c['reason']}"
            )
        write_lines(path, lines)


def _sweep_cell(
    theta: float, horizon: float, dim: int, n_space: int, steps_per_unit_time: int
) -> tuple[MfgModel, TorusGrid]:
    """The model and grid of one sweep cell, with at least two time steps."""
    model = builtin_quadratic(
        theta=theta,
        coupling="antimonotone_symmetric",
        dim=dim,
        T=horizon,
        m0="uniform",
    )
    n_time = max(2, int(round(horizon * steps_per_unit_time)))
    return model, model.make_grid(n_space, n_time)


# relative gap below which two cells' separations count as equal
SEPARATION_TIE_RTOL = 1e-9


def sweep_nonuniqueness(
    thetas=(1.0, 4.0, 16.0, 64.0),
    horizons=(0.5, 1.0, 2.0, 4.0, 8.0),
    dim: int = 1,
    n_space: int = 32,
    steps_per_unit_time: int = 128,
    tol: float = 1e-6,
    refine_best: bool = True,
) -> SweepResult:
    """Geometric (theta, T) sweep; each cell hunts for a branch pair.

    The best cell (largest separation with a verified J ordering; a tie
    goes to the longest horizon) is re-run once at doubled resolution to
    guard against discretization phantoms; the relative change of its
    separation, `separation_change`, is all the result keeps of that run.
    """
    params = [(theta, horizon) for theta in thetas for horizon in horizons]

    def run_cell(args):
        model, grid = _sweep_cell(*args, dim, n_space, steps_per_unit_time)
        return make_branch_pair(model, grid, tol=tol)

    cells = []
    verified: list[BranchPair] = []
    for (theta, horizon), (pair, reason) in zip(params, map(run_cell, params)):
        found = pair is not None and pair.j_asymmetric.total < pair.j_symmetric.total
        if pair is not None and not found:
            reason = "J(asymmetric) not below J(symmetric)"
        cells.append(
            {
                "theta": theta,
                "horizon": horizon,
                "found": found,
                "separation": pair.separation if pair else 0.0,
                "j_symmetric": pair.j_symmetric.total if pair else math.nan,
                "j_asymmetric": pair.j_asymmetric.total if pair else math.nan,
                "reason": reason,
            }
        )
        if found:
            verified.append(pair)
    best_pair = None
    if verified:
        # separations within SEPARATION_TIE_RTOL of the largest tie; the
        # longest horizon, then the largest theta, wins, so a roundoff-level
        # change of a separation cannot move the best cell
        top = max(p.separation for p in verified)
        ties = [p for p in verified if p.separation >= top * (1.0 - SEPARATION_TIE_RTOL)]
        best_pair = max(ties, key=lambda p: (p.horizon, p.theta))
    change = None
    if best_pair is not None and refine_best:
        model, grid = _sweep_cell(
            best_pair.theta, best_pair.horizon, dim, 2 * n_space, 2 * steps_per_unit_time
        )
        refined, _ = make_branch_pair(model, grid, tol=tol)
        if refined is not None:
            change = abs(refined.separation - best_pair.separation) / best_pair.separation
    return SweepResult(cells=cells, best=best_pair, separation_change=change)
