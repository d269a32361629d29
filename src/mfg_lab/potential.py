"""The variational side: the cost functional J over density-flux pairs, its
first variation, the second-variation quadratic form, and the restriction
property of minimizers.

Quadrature is fixed so that the discrete PDE schemes are exactly the
first-order conditions of the discrete J under the discrete continuity
constraint (for the shipped terminal data g = 0):

* kinetic term  sum_{k=0}^{K-1} dt <m^k L(x, w^k/m^k)>   (left endpoints),
* running potential sum_{k=1}^{K} dt F(m^k)              (right endpoints),
* terminal potential G(m^K) weighted once.

With this pairing, criticality of a converged solution and the vanishing of
the second variation on linearized solutions hold to solver precision, not
just to O(dt).

Every term is evaluated over the whole trajectory in one call; per-slice
values are then added in slice order, as a slice-by-slice loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DensityField, FluxField, TorusGrid, sup_norm
from .mfg import MfgSolution, drift_field, solution_distance, solve_picard
from .models import MfgModel
from .pde import continuity_residual, solve_continuity
from .perturb import low_frequency_field, perturb_density_values

__all__ = [
    "AdmissiblePair",
    "JBreakdown",
    "evaluate_J",
    "first_variation",
    "criticality_defect",
    "evaluate_second_variation",
    "second_variation_parts",
    "admissible_direction",
    "perturbed_nonsolution_pair",
    "restriction_consistency",
    "CriticalityReport",
    "RestrictionReport",
]

ADMISSIBLE_DEFECT_TOL = 1e-8
DIVISION_FLOOR = 1e-12
# step of the central differences of J that `criticality_defect` checks
# the first variation against
FD_STEP = 1e-4


@dataclass
class AdmissiblePair:
    """Density-flux pair under the discrete continuity equation.

    Membership in the discrete admissible class requires the continuity
    defect below 1e-8 and the kinetic integrand finite (w = 0 wherever
    m = 0).
    """

    m: DensityField
    w: FluxField
    continuity_defect: float

    @classmethod
    def from_values(cls, grid: TorusGrid, m_values, w_values) -> "AdmissiblePair":
        m = DensityField(grid, np.asarray(m_values, dtype=float))
        w = FluxField(grid, np.asarray(w_values, dtype=float))
        defect = continuity_residual(grid, m.values, w.values)
        return cls(m=m, w=w, continuity_defect=defect)

    @classmethod
    def from_solution(cls, sol: MfgSolution) -> "AdmissiblePair":
        """The solution's own fields: its flux w = -m b is the Kolmogorov
        sweep's, so its continuity defect is the solution's kolmogorov
        residual."""
        return cls(m=sol.m, w=sol.w, continuity_defect=sol.residuals["kolmogorov"])

    @property
    def grid(self) -> TorusGrid:
        return self.m.grid

    def shifted(self, h: float, mu_values, z_values) -> "AdmissiblePair":
        return AdmissiblePair.from_values(
            self.grid, self.m.values + h * mu_values, self.w.values + h * z_values
        )


@dataclass
class JBreakdown:
    kinetic: float
    running_potential: float
    terminal_potential: float
    total: float
    finite: bool = True


def _slice_sums(values: np.ndarray) -> np.ndarray:
    """Sum over each slice of a (slices, *spatial) stack, as np.sum of that
    slice alone."""
    return values.reshape(len(values), -1).sum(axis=1)


def _accumulate(terms) -> float:
    """Left-to-right sum of per-slice terms in slice order (cumsum adds
    sequentially, where np.sum would pair them up)."""
    return float(np.cumsum(terms)[-1])


def _kinetic_slices(model, grid, m, w) -> np.ndarray:
    """<m^k L(x, w^k/m^k)> of every slice: m L(w/m) is 0 where m = w = 0 and
    +infinity where m = 0 < |w|."""
    floored = np.maximum(m, DIVISION_FLOOR)
    q = w / floored[..., None]
    contrib = m * model.lagrangian.value(grid.coordinates(), q)
    at_zero = m == 0.0
    if np.any(at_zero):
        moving = np.max(np.abs(w), axis=-1) != 0.0
        contrib = np.where(at_zero, np.where(moving, math.inf, 0.0), contrib)
    return grid.cell_volume * _slice_sums(contrib)


def evaluate_J(model: MfgModel, pair: AdmissiblePair) -> JBreakdown:
    """Kinetic + running + terminal cost of an admissible pair."""
    grid = pair.grid
    if grid.dim != model.dim:
        raise ValueError("pair dimension does not match the model")
    coup = model.coupling
    K, dt = grid.n_time, grid.dt

    parts = _kinetic_slices(model, grid, pair.m.values[:K], pair.w.values[:K])
    if np.any(np.isinf(parts)):
        return JBreakdown(math.inf, 0.0, 0.0, math.inf, finite=False)
    kinetic = _accumulate(dt * parts)
    running = dt * _accumulate(coup.F(grid, pair.m.values[1:]))
    terminal = float(coup.G(grid, pair.m.values[K]))
    return JBreakdown(
        kinetic=kinetic,
        running_potential=running,
        terminal_potential=terminal,
        total=kinetic + running + terminal,
        finite=True,
    )


def first_variation(
    model: MfgModel,
    pair: AdmissiblePair,
    mu_values: np.ndarray,
    z_values: np.ndarray,
) -> float:
    """Exact directional derivative of the discrete J along (mu, z).

    Kinetic part per node: mu (L(q) - D_qL(q).q) + D_qL(q).z with
    q = w/m; at a solution pair q = -D_pH(x,Du), so this coincides with the
    mu L + D_qL.(z + mu D_pH(x,Du)) form used in the continuum computation.
    """
    grid = pair.grid
    coords = grid.coordinates()
    coup = model.coupling
    K, dt, vol = grid.n_time, grid.dt, grid.cell_volume
    m, w = pair.m.values, pair.w.values

    q = w[:K] / np.maximum(m[:K], DIVISION_FLOOR)[..., None]
    lval = model.lagrangian.value(coords, q)
    dql = model.lagrangian.grad_q(coords, q)
    node = mu_values[:K] * (lval - np.sum(dql * q, axis=-1)) + np.sum(
        dql * z_values[:K], axis=-1
    )
    running = coup.f(grid, m[1:]) * mu_values[1:]
    terminal = vol * float(np.sum(coup.g(grid, m[K]) * mu_values[K]))
    return _accumulate(
        np.concatenate(
            [dt * vol * _slice_sums(node), dt * vol * _slice_sums(running), [terminal]]
        )
    )


def admissible_direction(
    grid: TorusGrid, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Flux-first probe direction: random smooth z, mu from the continuity solve.

    z vanishes on the first tenth of the time slices so mu(t0) = 0 and
    perturbed densities m + h mu stay positive for small h; the pair is
    normalized to unit sup magnitude.
    """
    K = grid.n_time
    k_zero = max(1, int(round(0.1 * K)))
    times = np.arange(K + 1, dtype=float) / K
    ramp = np.zeros(K + 1)
    width = max(1, K // 5)
    for k in range(K + 1):
        if k <= k_zero:
            ramp[k] = 0.0
        elif k >= k_zero + width:
            ramp[k] = 1.0
        else:
            s = (k - k_zero) / width
            ramp[k] = math.sin(0.5 * math.pi * s) ** 2
    mod = 1.0 + 0.5 * np.cos(2.0 * np.pi * times) * rng.standard_normal()

    tshape = (-1, *([1] * grid.dim))
    z = np.zeros((K + 1, *grid.spatial_shape, grid.dim))
    for a in range(grid.dim):
        profile = low_frequency_field(grid, rng)
        z[..., a] = ramp.reshape(tshape) * mod.reshape(tshape) * profile
    mu = solve_continuity(grid, z, np.zeros(grid.spatial_shape))
    scale = max(sup_norm(mu), sup_norm(z), 1e-30)
    return mu / scale, z / scale


@dataclass
class CriticalityReport:
    max_defect: float
    max_fd_mismatch: float


def criticality_defect(
    model: MfgModel,
    sol: MfgSolution,
    probes: int,
    rng: np.random.Generator,
) -> CriticalityReport:
    """Max |dJ/dh| over random admissible directions at a solution pair,
    cross-checked against central finite differences of evaluate_J with
    step FD_STEP."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    pair = AdmissiblePair.from_solution(sol)
    worst = 0.0
    worst_fd = 0.0
    for _ in range(probes):
        mu, z = admissible_direction(sol.grid, rng)
        analytic = first_variation(model, pair, mu, z)
        worst = max(worst, abs(analytic))
        plus = evaluate_J(model, pair.shifted(FD_STEP, mu, z)).total
        minus = evaluate_J(model, pair.shifted(-FD_STEP, mu, z)).total
        fd = (plus - minus) / (2.0 * FD_STEP)
        worst_fd = max(worst_fd, abs(analytic - fd))
    return CriticalityReport(max_defect=worst, max_fd_mismatch=worst_fd)


def perturbed_nonsolution_pair(
    model: MfgModel,
    sol: MfgSolution,
    amplitude: float,
    rng: np.random.Generator,
) -> AdmissiblePair:
    """Admissible pair at distance ~amplitude from a solution.

    Perturbs the flux and re-solves the continuity equation, so the result
    stays in the admissible class (perturbing m alone would leave it).
    """
    grid = sol.grid
    z = np.zeros((grid.n_time + 1, *grid.spatial_shape, grid.dim))
    for a in range(grid.dim):
        z[..., a] = low_frequency_field(grid, rng)
    w_new = sol.w.values + amplitude * z
    m_new = solve_continuity(grid, w_new, sol.m.values[0])
    if m_new.min() <= 0:
        raise ValueError("perturbation amplitude too large: density hit zero")
    return AdmissiblePair.from_values(grid, m_new, w_new)


def second_variation_parts(
    model: MfgModel,
    sol: MfgSolution,
    mu_values: np.ndarray,
    z_values: np.ndarray,
) -> tuple[float, float, float]:
    """(kinetic, running-kernel, terminal-kernel) pieces of the quadratic form."""
    grid = sol.grid
    coup = model.coupling
    K, dt, vol = grid.n_time, grid.dt, grid.cell_volume
    m = sol.m.values
    b = drift_field(model, grid, sol.u.values[:K])

    floored = np.maximum(m[:K], DIVISION_FLOOR)
    q = sol.w.values[:K] / floored[..., None]
    d2l = model.lagrangian.hess_qq(grid.coordinates(), q)
    vec = z_values[:K] + mu_values[:K, ..., None] * b
    quad = np.einsum("...ij,...i,...j->...", d2l, vec, vec)
    kin = _accumulate(dt * vol * _slice_sums(quad / floored))
    mu = mu_values.reshape(K + 1, -1)
    run = _accumulate(dt * vol * _slice_sums(mu[1:] * (coup.kernel_f(grid, m[1:]) @ mu[1:])))
    term = vol * float(np.sum(mu[K] * (coup.kernel_g(grid, m[K]) @ mu[K])))
    return kin, run, term


def evaluate_second_variation(
    model: MfgModel,
    sol: MfgSolution,
    mu_values: np.ndarray,
    z_values: np.ndarray,
) -> float:
    """Quadratic form d^2/dh^2 J((m,w) + h(mu,z)) for admissible directions.

    Raises on directions violating the linearized continuity equation with
    mu(t0) = 0.
    """
    grid = sol.grid
    defect = continuity_residual(grid, mu_values, z_values)
    if defect > ADMISSIBLE_DEFECT_TOL or sup_norm(mu_values[0]) > ADMISSIBLE_DEFECT_TOL:
        raise ValueError(
            f"inadmissible direction: continuity defect {defect:.3e}, "
            f"|mu(t0)| {sup_norm(mu_values[0]):.3e}"
        )
    kin, run, term = second_variation_parts(model, sol, mu_values, z_values)
    return kin + run + term


@dataclass
class RestrictionReport:
    t1_index: int
    dist_from_restriction_init: float
    dist_from_perturbed_init: float
    both_converged: bool


def restriction_consistency(
    model: MfgModel,
    sol: MfgSolution,
    t1_index: int,
) -> RestrictionReport:
    """Re-solve on [t1, T] from the restriction's initial density.

    Two Picard solves (tol 1e-11, at most 400 rounds): one from the
    restriction itself, one from it perturbed by 1e-2 (seed 0).  Distances
    of the re-solves to the restriction of sol are reported in
    sup(u C^{1,0}) + sup(m) form (`mfg.solution_distance`).
    """
    if t1_index == 0:
        raise ValueError("t1 must be an interior grid time")
    rgrid = sol.grid.restrict(t1_index)  # a GridError past its bounds
    m_restr = sol.m.values[t1_index:].copy()
    u_restr = sol.u.values[t1_index:]
    m1 = m_restr[0]
    run_a = solve_picard(model, rgrid, m0=m1, init_m=m_restr, tol=1e-11, max_iter=400)
    init_b = perturb_density_values(rgrid, m_restr, 1e-2, np.random.default_rng(0))
    init_b[0] = m1
    run_b = solve_picard(model, rgrid, m0=m1, init_m=init_b, tol=1e-11, max_iter=400)
    return RestrictionReport(
        t1_index=t1_index,
        dist_from_restriction_init=solution_distance(run_a, u_restr, m_restr),
        dist_from_perturbed_init=solution_distance(run_b, u_restr, m_restr),
        both_converged=run_a.converged and run_b.converged,
    )
