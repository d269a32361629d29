"""Fixed-point solution of the coupled MFG system and the uniqueness probe.

`best_response` is the one map that Picard and fictitious play iterate:
belief mu -> source f(mu) -> backward value solve -> forward density solve
along the drift it returns -> gap to mu.  They differ only in the belief
update; the branch search runs on these two solvers.  Picard's mixes the
last rounds by type-II Anderson acceleration (Walker & Ni, Anderson
acceleration for fixed-point iterations, SIAM J. Numer. Anal. 49, 2011):
m <- m + lambda f - (dX + lambda dF) gamma with f = m~ - m, which is the damped
m <- (1-lambda) m + lambda m~ while there is no history.  The mixer keeps dF
as QR factors that gain and lose one column per round (section 4 of Walker
& Ni), so outside the two sweeps a round costs O(depth L) on beliefs of
length L = K N^d, and a difference that adds no direction is not kept.  On
a linear map Anderson mixing is GMRES, so it converges fast where I - DPhi
is nonsingular, at the stable solutions.  A returned solution is one round's
record, so its residuals are honest measures of the remaining fixed-point
defect.

Newton on the coupled system is deliberately not provided here: its linear
system is exactly the linearized forward-backward system owned by the
stability module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DensityField,
    FluxField,
    ScalarField,
    TorusGrid,
    c10_norm_field,
    gradient,
    max_slice_l2_norm,
    sup_norm,
)
from .models import MfgModel
from .pde import (
    drift_field,
    hjb_residual,
    kolmogorov_residual,
    solve_heat,
    solve_hjb,
    solve_kolmogorov,
)

__all__ = [
    "MfgSolution",
    "BestResponse",
    "best_response",
    "solve_picard",
    "drift_field",
    "heat_flow_of_initial",
    "probe_uniqueness_given_gradient",
    "UniquenessProbeReport",
]


def heat_flow_of_initial(model: MfgModel, grid: TorusGrid, m0=None) -> np.ndarray:
    """Drift-free forward solve of m0: the canonical initial Picard iterate."""
    m0 = model.initial_density_slice(grid) if m0 is None else m0
    return solve_heat(grid, m0).values


@dataclass
class BestResponse:
    """One round of the forward-backward map against a belief mu."""

    source: np.ndarray  # f(mu), the running source of the backward leg
    u: np.ndarray
    drift: np.ndarray  # D_pH(x, Du) on every slice
    m: np.ndarray  # forward flow of m0 along the drift
    gap: float  # max over slices of the l2 distance of m to mu


def best_response(
    model: MfgModel, grid: TorusGrid, belief: np.ndarray, m0: np.ndarray
) -> BestResponse:
    """Backward solve against the belief, then play the drift D_pH(x, Du) of
    its value forward from m0."""
    coup = model.coupling
    source = coup.f_field(grid, belief)
    u, drift = solve_hjb(model, grid, source, coup.g(grid, belief[-1]))
    m = solve_kolmogorov(grid, drift, m0).values
    return BestResponse(
        source=source,
        u=u,
        drift=drift,
        m=m,
        gap=max_slice_l2_norm(grid, m - belief),
    )


@dataclass
class MfgSolution:
    """Solver output with diagnostics; w = -m * D_pH(x,Du) is derived data."""

    model: MfgModel
    grid: TorusGrid
    u: ScalarField
    m: DensityField
    w: FluxField
    residuals: dict
    iterations: int
    converged: bool
    gap_history: list = field(default_factory=list)


def _package_solution(
    model, grid, played: BestResponse, iterations, converged, gaps
) -> MfgSolution:
    """The round's (u, m) with its residuals: the backward and forward
    defects, and the coupling defect sup |source - f(m)|."""
    u, m = played.u, played.m
    source_of_m = model.coupling.f_field(grid, m)
    residuals = {
        "hjb": hjb_residual(model, grid, u, source_of_m),
        "kolmogorov": kolmogorov_residual(grid, m, played.drift),
        "coupling_consistency": sup_norm(played.source - source_of_m),
    }
    return MfgSolution(
        model=model,
        grid=grid,
        u=ScalarField(grid, u),
        m=DensityField(grid, m),
        w=FluxField(grid, -m[..., None] * played.drift),
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        gap_history=gaps,
    )


# Depth of the Picard belief update: it fits the residual by the differences
# of the last ANDERSON_DEPTH rounds.  `_AndersonMixer` keeps them, with the
# residual differences as QR factors, in buffers of ANDERSON_DEPTH rows of
# length L = K N^d: a round costs O(ANDERSON_DEPTH L), plus
# O(ANDERSON_DEPTH^2 L) once the oldest column leaves, and a difference that
# adds no direction to the kept ones (the rank guard) is not kept.
# Rounds to converge, by depth 2/3/4/5/6/8 at weight 0.5 (plain damping 0.5
# in brackets; the asymmetric polish at weight 1, plain weight 1 in brackets):
#   picard_1d, 20 tasks of seed 0, tol 1e-10:    6/6/6/6/6/6     (25)
#   monotone N=32 K=48, tol 1e-12:               9/8/7/7/7/7     (32)
#   certify bases, 1D / 2D, tol 1e-11:      9,9/7,8/7,7/7,7/7,7  (28, 28)
#   asymmetric polish, theta 50/60/70, N=24 K=128 T=1, tol 1e-10, from
#   fictitious-play round 3:             11,11,11/10,11,11/9,10,11/
#                                        9,10,11/9,10,10/9,10,10  (21,18,17)
# Depth 1 needs 7 rounds on picard_1d; past depth 5 the counts barely move.
ANDERSON_DEPTH = 5


class _AndersonMixer:
    """Type-II Anderson mixing (Walker & Ni 2011) of flattened beliefs x and
    their residuals f = x~ - x, with mixing weight `damping`.

    It keeps the last ANDERSON_DEPTH differences of consecutive rounds: dX
    as rows, and dF as its thin QR factors, Q as orthonormal rows and the
    small upper-triangular R (section 4 of Walker & Ni).  A new difference
    enters by classical Gram-Schmidt with one reorthogonalization; the
    oldest leaves by re-triangularizing R without its first column, whose
    rotation turns the rows of Q.  The next belief is
    x + damping f - dX gamma - damping Q R gamma with gamma = R^-1 Q^T f, the
    least-squares fit of f by dF.  A round therefore costs O(depth L) on
    beliefs of length L, plus O(depth^2 L) when a column leaves.

    A difference whose residual part orthogonal to the kept columns is at
    most eps L |df| (the rcond of a least-squares solve) adds no direction
    and is not kept; with no columns kept the round is the damped
    (1 - damping) x + damping x~.
    """

    def __init__(self, size: int, damping: float):
        self.damping = damping
        self.dx = np.empty((ANDERSON_DEPTH, size))
        self.q = np.empty((ANDERSON_DEPTH, size))
        self.r = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.cols = 0
        self.rank_tol = np.finfo(float).eps * size
        self.last = None  # (x, f) of the previous round

    def next_belief(self, x: np.ndarray, played: np.ndarray) -> np.ndarray:
        """The belief after x, whose best response is `played`."""
        f = played - x
        if self.last is not None:
            self._push(x - self.last[0], f - self.last[1])
        self.last = x, f
        h, lam = self.cols, self.damping
        if h == 0:
            return (1.0 - lam) * x + lam * played
        q, r = self.q[:h], self.r[:h, :h]
        gamma = np.linalg.solve(r, q @ f)
        nxt = x + lam * f
        nxt -= gamma @ self.dx[:h]
        nxt -= (lam * (r @ gamma)) @ q
        return nxt

    def _push(self, dx: np.ndarray, df: np.ndarray) -> None:
        if self.cols == ANDERSON_DEPTH:
            self._drop_oldest()
        h = self.cols
        q = self.q[:h]
        coef = q @ df
        v = df - coef @ q
        again = q @ v
        v -= again @ q
        rho = np.sqrt(v @ v)
        if rho <= self.rank_tol * np.sqrt(df @ df):
            return
        np.divide(v, rho, out=self.q[h])
        self.r[:h, h] = coef + again
        self.r[h, h] = rho
        self.dx[h] = dx
        self.cols = h + 1

    def _drop_oldest(self) -> None:
        h = self.cols
        rot, r = np.linalg.qr(self.r[:h, 1:h])
        self.q[: h - 1] = rot.T @ self.q[:h]
        self.r[: h - 1, : h - 1] = r  # a push writes all of the next column
        self.dx[: h - 1] = self.dx[1:h]
        self.cols = h - 1


def _checked_init_m(grid: TorusGrid, init_m) -> np.ndarray:
    """A copy of the initial belief, of trajectory shape and finite;
    ValueError otherwise."""
    m = np.array(init_m, dtype=float)
    if m.shape != (grid.n_time + 1, *grid.spatial_shape):
        raise ValueError(
            f"init_m shape {m.shape} != {(grid.n_time + 1, *grid.spatial_shape)}"
        )
    if not np.isfinite(m).all():
        raise ValueError("init_m must be finite")
    return m


def solve_picard(
    model: MfgModel,
    grid: TorusGrid,
    m0=None,
    init_m: np.ndarray | None = None,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 300,
) -> MfgSolution:
    """Anderson-accelerated Picard iteration on the density trajectory.

    Each round plays `best_response` against the belief m; the next belief
    mixes the last ANDERSON_DEPTH rounds (type II, Walker & Ni 2011) with
    mixing weight `damping`: m + damping f - (dX + damping dF) gamma, where
    f = m~ - m, dX and dF are the differences of past beliefs and residuals
    on slices 1..K and gamma is the least-squares fit of f by dF
    (`_AndersonMixer`).  The first update, with no differences yet, is the
    damped (1-damping) m + damping m~.

    Stop test: the sup over slices of the l2 gap of the forward output to
    the trajectory, then the coupling defect; tol = 0 plays max_iter rounds,
    and tol must be finite (at inf one round would pass as converged).
    Non-convergence returns the best iterate with converged=False rather
    than raising; near unstable equilibria that outcome is an observable.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not 0.0 <= tol < math.inf:  # NaN too
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    m0_slice = model.initial_density_slice(grid) if m0 is None else np.asarray(m0)
    if init_m is None:
        m_values = heat_flow_of_initial(model, grid, m0_slice)
    else:
        m_values = _checked_init_m(grid, init_m)
        m_values[0] = m0_slice
    gaps: list[float] = []
    best = None
    mixer = _AndersonMixer(m_values[1:].size, damping)
    for it in range(1, max_iter + 1):
        played = best_response(model, grid, m_values, m0_slice)
        gaps.append(played.gap)
        if best is None or played.gap <= best.gap:
            best = played
        if played.gap <= tol:
            # the l2 stop alone can leave sup-norm coupling defects near
            # 100*tol; require the source mismatch small too so converged
            # solutions carry residuals <= 10*tol
            if sup_norm(played.source - model.coupling.f_field(grid, played.m)) <= 5.0 * tol:
                return _package_solution(model, grid, played, it, True, gaps)
        nxt = np.empty_like(m_values)
        nxt[0] = m0_slice
        nxt[1:] = mixer.next_belief(
            m_values[1:].ravel(), played.m[1:].ravel()
        ).reshape(nxt[1:].shape)
        m_values = nxt
    return _package_solution(model, grid, best, max_iter, False, gaps)


# The probe's thresholds: initial gradients closer than UNIQUENESS_TOL_GRAD
# count as equal, trajectories farther apart than UNIQUENESS_TOL_SOL as
# distinct.
UNIQUENESS_TOL_GRAD = 1e-8
UNIQUENESS_TOL_SOL = 1e-5


@dataclass
class UniquenessProbeReport:
    d_grad: float
    d_sol: float
    verdict: str  # CONSISTENT / INCONSISTENT with uniqueness-given-gradient


def probe_uniqueness_given_gradient(
    sol1: MfgSolution, sol2: MfgSolution
) -> UniquenessProbeReport:
    """Probe: equal initial density + equal initial Du should force equality.

    Requires both solutions on one grid with matching initial densities; the
    verdict is INCONSISTENT only when initial gradients agree to
    UNIQUENESS_TOL_GRAD while the trajectories separate beyond
    UNIQUENESS_TOL_SOL.
    """
    g = sol1.grid
    if not g.compatible(sol2.grid):
        raise ValueError("solutions live on different grids")
    if sup_norm(sol1.m.values[0] - sol2.m.values[0]) > 1e-12:
        raise ValueError("probe requires identical initial densities")
    du1 = gradient(g, sol1.u.values[0])
    du2 = gradient(g, sol2.u.values[0])
    d_grad = sup_norm(du1 - du2)
    d_sol = max(
        sup_norm(sol1.u.values[k] - sol2.u.values[k])
        + sup_norm(sol1.m.values[k] - sol2.m.values[k])
        for k in range(g.n_time + 1)
    )
    consistent = (d_grad > UNIQUENESS_TOL_GRAD) or (d_sol <= UNIQUENESS_TOL_SOL)
    return UniquenessProbeReport(
        d_grad=d_grad,
        d_sol=d_sol,
        verdict="CONSISTENT" if consistent else "INCONSISTENT",
    )


def solution_distance(sol: MfgSolution, u: np.ndarray, m: np.ndarray) -> float:
    """sup_t (C^{1,0}-proxy distance of sol.u to u) + sup-norm distance of
    sol.m to m, for the trajectories u and m on sol's grid."""
    return c10_norm_field(sol.grid, sol.u.values - u) + sup_norm(sol.m.values - m)
