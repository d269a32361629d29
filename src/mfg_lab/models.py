"""Game data: Hamiltonians, Lagrangians, couplings, and the built-in models.

Sign convention used everywhere: the Lagrangian is the conjugate
``L(x,q) = sup_p { -p.q - H(x,p) }``, the optimal flux of a solution is
``w = -m * D_pH(x, Du)``, and the maximizer satisfies ``p* = -D_qL(q)``,
``q = -D_pH(p*)``, hence ``D2_qqL(x, w/m) @ D2_ppH(x, Du) = I``.

Couplings ship with their flat (measure) derivatives ``K(x_i, m, y_j)`` in
one form only: the factors ``dx^d K(m) = c I + U W^T`` of small rank r
(`KernelFactors`), built from a few fixed modes and slice moments.  The
linearized operator, the second variation and the checks all apply
``factors @ mu``; no coupling builds an n x n matrix, and only
`check_symmetry_relation` forms one from the factors (`toarray`).  Both the
coupling value f and its kernel
are the normalized representatives (integral against m vanishes); adding
slice-constants to f does not change the game, but only the normalized pair
satisfies the kernel symmetry relation ``K(x,y) - K(y,x) = f(x) - f(y)``
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import TorusGrid

__all__ = [
    "Hamiltonian",
    "Lagrangian",
    "Coupling",
    "KernelFactors",
    "MfgModel",
    "builtin_quadratic",
    "quadratic_hamiltonian",
    "squared_norm",
    "zero_coupling",
    "monotone_local_coupling",
    "monotone_smoothed_coupling",
    "antimonotone_symmetric_coupling",
    "m0_preset",
    "check_convexity",
    "check_hamiltonian_gradient",
    "check_legendre",
    "check_symmetry_relation",
    "check_coupling_normalization",
    "legendre_transform_newton",
    "COUPLINGS",
    "HAMILTONIANS",
    "M0_PRESETS",
]


@dataclass(frozen=True)
class Hamiltonian:
    """H(x,p) with derivatives; x is a tuple of coordinate arrays, p has a
    trailing axis of length d matching x.

    The family is H(x,p) = a(x)|p|^2/2 with a > 0, and ``coefficient(x)``
    gives a(x) (a scalar where a is constant).  The HJB sweep reads a once
    per sweep and forms H from it; the residuals and checks call ``value``.
    """

    name: str
    value: Callable
    grad_p: Callable
    hess_pp: Callable
    grad_x: Callable
    coefficient: Callable


@dataclass(frozen=True)
class Lagrangian:
    name: str
    value: Callable
    grad_q: Callable
    hess_qq: Callable


@dataclass(frozen=True)
class KernelFactors:
    """``dx^d K(m) = c I + U W^T`` on every slice of a stack of densities.

    U and W have shape (..., n, r), n the nodes of a slice flattened; c does
    not depend on m.  ``factors @ mu`` applies it to mu of shape (..., n),
    ``factors.T`` is the transposed map, and ``factors[k]`` the factors of
    slice k of the stack.
    """

    c: float
    U: np.ndarray
    W: np.ndarray

    def __getitem__(self, k) -> "KernelFactors":
        return KernelFactors(self.c, self.U[k], self.W[k])

    def __matmul__(self, mu: np.ndarray) -> np.ndarray:
        moments = np.swapaxes(self.W, -1, -2) @ mu[..., None]
        return self.c * mu + (self.U @ moments)[..., 0]

    def toarray(self) -> np.ndarray:
        """The dense (..., n, n) matrices c I + U W^T."""
        return self.c * np.eye(self.U.shape[-2]) + self.U @ np.swapaxes(self.W, -1, -2)

    @property
    def T(self) -> "KernelFactors":
        return KernelFactors(self.c, self.W, self.U)


@dataclass(frozen=True)
class Coupling:
    """Running coupling f with potential F and kernel, plus terminal (g, G).

    f, g, F and G take (grid, m_slice) with m_slice of spatial shape; the
    kernels ``kernel_f(grid, m)`` and ``kernel_g`` give the flat derivatives
    of f and g at m as `KernelFactors`, so ``kernel_f(grid, m) @ mu`` is
    ``dx^d K(m) mu`` for mu flattened to (..., n).  All of them also accept
    a leading stack (..., *spatial), acting slice by slice (sums over the
    spatial axes only), and F and G then give one value per slice:
    ``f_field`` passes a whole trajectory to f in one call, and
    ``evaluate_J`` one to F.
    """

    name: str
    f: Callable
    kernel_f: Callable
    F: Optional[Callable]
    g: Callable
    kernel_g: Callable
    G: Optional[Callable]

    def f_field(self, grid, m_values: np.ndarray) -> np.ndarray:
        return self.f(grid, m_values)


@dataclass(frozen=True)
class MfgModel:
    """Bundle of game data on a fixed horizon."""

    name: str
    dim: int
    hamiltonian: Hamiltonian
    lagrangian: Lagrangian
    coupling: Coupling
    t0: float
    T: float
    m0: Callable
    theta: float = 0.0

    def __post_init__(self):
        if not self.T > self.t0:
            raise ValueError("model horizon requires T > t0")

    def make_grid(self, n_space: int, n_time: int) -> TorusGrid:
        return TorusGrid(self.dim, n_space, n_time, self.t0, self.T)

    def initial_density_slice(self, grid: TorusGrid) -> np.ndarray:
        """m0 sampled to the grid and renormalized to exact unit mass."""
        vals = np.asarray(self.m0(grid), dtype=float)
        if vals.shape != grid.spatial_shape:
            raise ValueError("m0 sample has wrong shape")
        if not np.isfinite(vals).all():
            raise ValueError("m0 must be finite")
        if vals.min() < 0:
            raise ValueError("m0 must be nonnegative")
        mass = grid.cell_volume * vals.sum()
        if mass <= 0:
            raise ValueError("m0 must have positive mass")
        return vals / mass


# ---------------------------------------------------------------------------
# Hamiltonian / Lagrangian library
# ---------------------------------------------------------------------------


def _coef(eps: float):
    def a_of_x(x):
        return 1.0 + eps * np.cos(2.0 * np.pi * x[0])

    def unit(x):
        return np.float64(1.0)  # eps = 0: multiplying or dividing by 1.0 is exact

    def da_of_x(x):
        return -2.0 * np.pi * eps * np.sin(2.0 * np.pi * x[0])

    return (unit if eps == 0.0 else a_of_x), da_of_x


def squared_norm(p: np.ndarray) -> np.ndarray:
    """|p|^2 over the trailing axis, summed component by component in order:
    the bits of ``(p * p).sum(axis=-1)`` without a reduction call."""
    p_a = p[..., 0]
    sq = p_a * p_a
    for a in range(1, p.shape[-1]):
        p_a = p[..., a]
        sq += p_a * p_a
    return sq


def quadratic_hamiltonian(eps: float = 0.0) -> tuple[Hamiltonian, Lagrangian]:
    """H(x,p) = (1 + eps*cos(2 pi x1)) |p|^2 / 2 and its conjugate.

    eps = 0 is the plain quadratic pair H = |p|^2/2, L = |q|^2/2.
    Requires |eps| < 1 for uniform convexity.
    """
    if not abs(eps) < 1.0:
        raise ValueError("need |eps| < 1 for uniform convexity")
    a_of_x, da_of_x = _coef(eps)

    def h_val(x, p):
        return 0.5 * a_of_x(x) * squared_norm(p)

    def h_grad_p(x, p):
        return a_of_x(x)[..., None] * p

    def h_hess(x, p):
        d = p.shape[-1]
        out = np.zeros((*p.shape[:-1], d, d))
        idx = np.arange(d)
        out[..., idx, idx] = a_of_x(x)[..., None]
        return out

    def h_grad_x(x, p):
        d = p.shape[-1]
        out = np.zeros((*p.shape[:-1], d))
        out[..., 0] = 0.5 * da_of_x(x) * squared_norm(p)
        return out

    def l_val(x, q):
        return 0.5 * squared_norm(q) / a_of_x(x)

    def l_grad_q(x, q):
        return q / a_of_x(x)[..., None]

    def l_hess(x, q):
        d = q.shape[-1]
        out = np.zeros((*q.shape[:-1], d, d))
        idx = np.arange(d)
        out[..., idx, idx] = 1.0 / a_of_x(x)[..., None]
        return out

    name = "quadratic" if eps == 0.0 else f"quadratic_xdep(eps={eps})"
    ham = Hamiltonian(
        name=name,
        value=h_val,
        grad_p=h_grad_p,
        hess_pp=h_hess,
        grad_x=h_grad_x,
        coefficient=a_of_x,
    )
    lag = Lagrangian(
        name=name, value=l_val, grad_q=l_grad_q, hess_qq=l_hess
    )
    return ham, lag


# ---------------------------------------------------------------------------
# coupling library
# ---------------------------------------------------------------------------


def _slice_sum(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Sum over the spatial axes of each slice, kept broadcastable."""
    return np.sum(values, axis=grid.spatial_axes, keepdims=True)


def _columns(grid: TorusGrid, *fields) -> np.ndarray:
    """Stack of (..., *spatial) fields as the columns of (..., n, r)."""
    flat = [np.reshape(f, (*np.shape(f)[: np.ndim(f) - grid.dim], -1)) for f in fields]
    return np.stack(np.broadcast_arrays(*flat), axis=-1)


def _zero_f(grid, m):
    return np.zeros(np.shape(m))


def _zero_factors(grid, m):
    shape = (*np.shape(m)[: np.ndim(m) - grid.dim], grid.n_nodes, 0)
    return KernelFactors(0.0, np.zeros(shape), np.zeros(shape))


def _zero_potential(grid, m):
    return np.zeros(np.shape(m)[: np.ndim(m) - grid.dim])


def zero_coupling() -> Coupling:
    return Coupling(
        name="none",
        f=_zero_f,
        kernel_f=_zero_factors,
        F=_zero_potential,
        g=_zero_f,
        kernel_g=_zero_factors,
        G=_zero_potential,
    )


def _quadratic_coupling(name: str, modes: Callable) -> Coupling:
    """f(m) = S m normalized, F(m) = 1/2 int (S m) m, for the self-adjoint
    linear smoothing ``S = c I + dx^d Phi Phi^T`` of each slice, given by
    ``modes(grid) -> (c, Phi)``.

    Kernel: S minus the rank-2 normalization terms, which need only the
    slice moments int mu, int (S m) mu and int (S m) m; its factors are
    those of S plus the two normalization terms.
    """

    def smooth(grid, m):
        # each slice as one column, so that a stack gets the bits of its slices
        c, phi = modes(grid)
        col = m.reshape(*m.shape[: m.ndim - grid.dim], -1, 1)
        return (c * col + phi @ (grid.cell_volume * (phi.T @ col))).reshape(m.shape)

    def f(grid, m):
        m = np.asarray(m)
        sm = smooth(grid, m)
        return sm - grid.cell_volume * _slice_sum(grid, sm * m)

    def F(grid, m):
        m = np.asarray(m)
        return 0.5 * grid.cell_volume * np.sum(smooth(grid, m) * m, axis=grid.spatial_axes)

    def factors(grid, m):
        vol = grid.cell_volume
        m = np.asarray(m)
        sm = smooth(grid, m)
        c, phi = modes(grid)
        ones = np.ones(grid.spatial_shape)
        U = _columns(grid, 2.0 * vol * _slice_sum(grid, sm * m) - sm, -2.0 * ones)
        W = _columns(grid, vol * ones, vol * sm)
        phi = np.broadcast_to(phi, (*U.shape[:-1], phi.shape[-1]))
        return KernelFactors(
            c, np.concatenate([phi, U], axis=-1), np.concatenate([vol * phi, W], axis=-1)
        )

    return Coupling(
        name=name,
        f=f,
        kernel_f=factors,
        F=F,
        g=_zero_f,
        kernel_g=_zero_factors,
        G=_zero_potential,
    )


def monotone_local_coupling() -> Coupling:
    """f(x,m) = m(x) up to normalization; F(m) = 1/2 int m^2."""
    return _quadratic_coupling(
        "monotone_local", lambda grid: (1.0, np.zeros((grid.n_nodes, 0)))
    )


def _smoothing_modes(grid: TorusGrid) -> tuple[float, np.ndarray]:
    """(0, Phi) with rho(x - y) = sum_q Phi_q(x) Phi_q(y) at the nodes, for
    the even, positive-definite mollifier rho(x) = prod_a (1 + cos 2 pi x_a):
    rho holds only the Fourier modes 0 and +-1 of each axis, so the 3^d
    columns are the products of 1, cos 2 pi x_a and sin 2 pi x_a."""
    x = 2.0 * np.pi * grid.axis_coordinates()
    phi = np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=-1)
    if grid.dim == 2:
        phi = np.einsum("ip,jq->ijpq", phi, phi).reshape(grid.n_nodes, 9)
    return 0.0, phi


def monotone_smoothed_coupling() -> Coupling:
    """f(x,m) = (rho * m)(x) with an even kernel; F(m) = 1/2 int (rho*m) m."""
    return _quadratic_coupling("monotone_smoothed", _smoothing_modes)


def _sine_moment(grid: TorusGrid, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First odd Fourier moment along x1 of each slice (kept broadcastable)
    and its integrand sin(2 pi x1)."""
    coords = grid.coordinates()
    s_x = np.sin(2.0 * np.pi * coords[0])
    return grid.cell_volume * _slice_sum(grid, s_x * np.asarray(m)), s_x


def _phi(s):
    return (1.0 - s * s) ** 2


def _phi_prime(s):
    return -4.0 * s * (1.0 - s * s)


def _phi_second(s):
    return -4.0 + 12.0 * s * s


def antimonotone_symmetric_coupling(theta: float) -> Coupling:
    """Symmetry-breaking potential F(m) = theta * (1 - S(m)^2)^2 with
    S(m) = int sin(2 pi x1) dm.

    F is invariant under x1 -> -x1 and is minimized at |S| = 1, so every
    reflection-symmetric density (S = 0) pays the maximal rate theta while
    lopsided densities pay less: the ingredient that makes multiple
    equilibria possible for large theta and long horizons.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")

    def f(grid, m):
        S, s_x = _sine_moment(grid, m)
        return theta * _phi_prime(S) * (s_x - S)

    def F(grid, m):
        S, _ = _sine_moment(grid, m)
        return theta * _phi(S.reshape(S.shape[: S.ndim - grid.dim]))

    def factors(grid, m):
        S, s_x = _sine_moment(grid, m)
        U = theta * (_phi_second(S) * (s_x - S) - _phi_prime(S))
        return KernelFactors(
            0.0, _columns(grid, U), _columns(grid, grid.cell_volume * (s_x - S))
        )

    return Coupling(
        name="antimonotone_symmetric",
        f=f,
        kernel_f=factors,
        F=F,
        g=_zero_f,
        kernel_g=_zero_factors,
        G=_zero_potential,
    )


# ---------------------------------------------------------------------------
# initial densities
# ---------------------------------------------------------------------------


def _m0_uniform(grid: TorusGrid) -> np.ndarray:
    return np.ones(grid.spatial_shape)


def _m0_cosine(grid: TorusGrid, amplitude: float = 0.5) -> np.ndarray:
    coords = grid.coordinates()
    return 1.0 + amplitude * np.cos(2.0 * np.pi * coords[0])


def _m0_bump(grid: TorusGrid) -> np.ndarray:
    coords = grid.coordinates()
    return np.exp(2.0 * np.cos(2.0 * np.pi * coords[0]))


M0_PRESETS = {
    "uniform": _m0_uniform,
    "cosine": _m0_cosine,
    "bump": _m0_bump,
}


def m0_preset(name: str, amplitude: float = 0.5) -> Callable:
    """Initial-density preset; `amplitude` parameterizes the cosine profile.

    Only |amplitude| <= 1 keeps 1 + amplitude cos(2 pi x) nonnegative; a
    signed profile is refused by `MfgModel.initial_density_slice`.
    """
    if name == "cosine":
        return lambda grid: _m0_cosine(grid, amplitude)
    return M0_PRESETS[name]

COUPLINGS = {
    "none": lambda theta: zero_coupling(),
    "monotone_local": lambda theta: monotone_local_coupling(),
    "monotone_smoothed": lambda theta: monotone_smoothed_coupling(),
    "antimonotone_symmetric": antimonotone_symmetric_coupling,
}

HAMILTONIANS = {
    "quadratic": lambda: quadratic_hamiltonian(0.0),
    "quadratic_xdep": lambda: quadratic_hamiltonian(0.1),
}


def builtin_quadratic(
    theta: float = 0.0,
    coupling: str = "antimonotone_symmetric",
    dim: int = 1,
    t0: float = 0.0,
    T: float = 1.0,
    m0: str | Callable = "uniform",
    hamiltonian: str = "quadratic",
    m0_amplitude: float = 0.5,
) -> MfgModel:
    """Quadratic-Hamiltonian model with a selectable coupling.

    theta scales the antimonotone coupling; theta = 0 or coupling='none'
    gives the decoupled game (f = 0, g = 0) whose solution is u = 0 with m
    the heat flow of m0.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    ham, lag = HAMILTONIANS[hamiltonian]()
    if coupling == "antimonotone_symmetric" and theta == 0.0:
        coup = zero_coupling()
    else:
        coup = COUPLINGS[coupling](theta)
    m0_fn = m0_preset(m0, m0_amplitude) if isinstance(m0, str) else m0
    return MfgModel(
        name=f"{hamiltonian}+{coup.name}",
        dim=dim,
        hamiltonian=ham,
        lagrangian=lag,
        coupling=coup,
        t0=t0,
        T=T,
        m0=m0_fn,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# validation checks
# ---------------------------------------------------------------------------


@dataclass
class ConvexityReport:
    min_eig: float
    max_eig: float
    ok: bool


def _sample_xp(dim: int, samples: int, seed, p_max: float):
    rng = np.random.default_rng(seed)
    x = tuple(rng.uniform(0.0, 1.0, size=samples) for _ in range(dim))
    p = rng.uniform(-p_max, p_max, size=(samples, dim))
    return x, p


def check_convexity(
    h: Hamiltonian, dim: int, samples: int = 100, seed=0
) -> ConvexityReport:
    """Extreme eigenvalues of D2_ppH over sampled (x, p) with |p_i| <= 10.

    A violation (min_eig <= 0) is reported, not raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x, p = _sample_xp(dim, samples, seed, p_max=10.0)
    hess = h.hess_pp(x, p)
    eigs = np.linalg.eigvalsh(hess)
    lo, hi = float(eigs.min()), float(eigs.max())
    return ConvexityReport(min_eig=lo, max_eig=hi, ok=lo > 0.0)


def check_hamiltonian_gradient(h: Hamiltonian, dim: int, samples: int = 50, seed=0) -> float:
    """Max |D_pH - central finite difference of H, step 1e-4| over samples."""
    step = 1e-4
    x, p = _sample_xp(dim, samples, seed, p_max=5.0)
    grad = h.grad_p(x, p)
    worst = 0.0
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = step
        fd = (h.value(x, p + e) - h.value(x, p - e)) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(fd - grad[..., a]))))
    return worst


def legendre_transform_newton(
    h: Hamiltonian, x, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inner maximization of -p.q - H(x,p) by Newton, at most 30 steps, until
    the stationarity residual is below 1e-12; returns (p*, L values)."""
    p = np.zeros_like(q)
    for _ in range(30):
        r = q + h.grad_p(x, p)  # stationarity residual (negated)
        if np.max(np.abs(r)) < 1e-12:
            break
        hess = h.hess_pp(x, p)
        p = p - np.linalg.solve(hess, r[..., None])[..., 0]
    lvals = -np.sum(p * q, axis=-1) - h.value(x, p)
    return p, lvals


@dataclass
class LegendreReport:
    conjugacy_defect: float
    hessian_identity_defect: float
    argmax_defect: float


def check_legendre(
    h: Hamiltonian,
    lag: Lagrangian,
    dim: int,
    samples: int = 200,
    seed=0,
) -> LegendreReport:
    """Consistency of the shipped (H, L) pair via the inner-maximization oracle.

    Checks L(x,q) + H(x,p*) + p*.q = 0 at the Newton maximizer p*, that
    p* = -D_qL(x,q), and the Hessian product identity
    D2_qqL(x, -D_pH(x,p)) @ D2_ppH(x,p) = I.
    """
    x, p = _sample_xp(dim, samples, seed, p_max=5.0)
    q = -h.grad_p(x, p)
    p_star, _ = legendre_transform_newton(h, x, q)
    lvals = lag.value(x, q)
    conj = float(np.max(np.abs(lvals + h.value(x, p_star) + np.sum(p_star * q, axis=-1))))
    argmax = float(np.max(np.abs(p_star + lag.grad_q(x, q))))
    prod = np.einsum("...ij,...jk->...ik", lag.hess_qq(x, q), h.hess_pp(x, p))
    eye = np.eye(dim)
    hess_defect = float(np.max(np.abs(prod - eye)))
    return LegendreReport(
        conjugacy_defect=conj,
        hessian_identity_defect=hess_defect,
        argmax_defect=argmax,
    )


def check_symmetry_relation(coupling: Coupling, grid: TorusGrid, m_slice: np.ndarray) -> float:
    """Max defect of K(x,y) - K(y,x) - f(x) + f(y) over all node pairs."""
    K = coupling.kernel_f(grid, m_slice).toarray() / grid.cell_volume
    fv = np.asarray(coupling.f(grid, m_slice)).reshape(-1)
    defect = K - K.T - (fv[:, None] - fv[None, :])
    return float(np.max(np.abs(defect)))


def check_coupling_normalization(
    coupling: Coupling, grid: TorusGrid, m_slice: np.ndarray
) -> tuple[float, float]:
    """(|int f dm|, max_x |int K(x,.) dm|) for the running coupling."""
    m = np.asarray(m_slice)
    f_defect = abs(float(grid.cell_volume * np.sum(coupling.f(grid, m) * m)))
    k_defect = float(np.max(np.abs(coupling.kernel_f(grid, m) @ m.reshape(-1))))
    return f_defect, k_defect
