"""Uniform space-time grids on the flat torus and the discrete calculus on them.

The spatial domain is the unit torus [0,1)^d (d = 1 or 2) with N points per
axis, dx = 1/N, and periodic index arithmetic.  Time lives on [t0, T] with K
steps of size dt = (T - t0)/K; fields are stored time-major, one contiguous
spatial slice per time node t_k = t0 + k*dt, k = 0..K.

The stencils and the slice norms act on the trailing spatial axes of any
leading stack, so a whole (K+1, *spatial) trajectory goes through one call
and gives bitwise the values of the per-slice calls.  The three stencil
operators are built as an exact adjoint pair plus their composition:

* ``gradient``    -- centered periodic difference per axis, O(dx^2);
* ``divergence``  -- the exact negative adjoint of ``gradient`` under the
  discrete inner product dx^d * sum(u*v), so summation by parts
  <grad u, w> = -<u, div w> holds at machine precision;
* ``laplacian``   -- divergence(gradient(u)) as a fused stencil
  (u[i+2] - 2u[i] + u[i-2])/(4 dx^2) per axis, again O(dx^2).

The energy identities used by the stability and variational machinery depend
on the adjointness being exact, not merely second order; do not replace these
stencils with one-sided or limited variants.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "DensityField",
    "FluxField",
    "gradient",
    "divergence",
    "laplacian",
    "integrate",
    "inner",
    "l2_norm",
    "max_slice_l2_norm",
    "sup_norm",
    "h1_norm",
    "c10_norm",
    "field_to_csv",
    "write_field_binary",
    "read_field_binary",
    "write_lines",
    "write_json",
    "strict_json",
]

# container tolerances: mass is conserved exactly by the schemes, negativity
# slack covers roundoff; solver outputs under valid step sizes stay >= -1e-12
MASS_TOL = 1e-12
NEG_TOL = 1e-10


class GridError(ValueError):
    """Raised when grid/field invariants are violated."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform discretization of T^d x [t0, T].

    dx*N == 1 by construction: node coordinates are i/N, never accumulated
    sums of dx.
    """

    dim: int
    n_space: int
    n_time: int
    t0: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if self.n_space < 4:
            raise GridError(f"n_space must be >= 4, got {self.n_space}")
        if self.n_time < 2:
            raise GridError(f"n_time must be >= 2, got {self.n_time}")
        if not self.T > self.t0:
            raise GridError(f"need T > t0, got t0={self.t0}, T={self.T}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_space

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_time

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.n_space,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.n_space**self.dim

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        """Axes of the spatial slice, counted from the end of a stacked field."""
        return tuple(range(-self.dim, 0))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_time + 1)

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n_space) / self.n_space

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshgrid node coordinates, one array of spatial_shape per axis."""
        x = self.axis_coordinates()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def time_index(self, t: float) -> int:
        """Index of a grid-aligned time; raises if t is off-grid."""
        k = (t - self.t0) / self.dt
        ki = int(round(k))
        if ki < 0 or ki > self.n_time or abs(k - ki) > 1e-9 * max(1, self.n_time):
            raise GridError(f"time {t} is not aligned to the grid")
        return ki

    def restrict(self, t1_index: int) -> "TorusGrid":
        """Sub-grid on [t_{t1_index}, T] sharing nodes and dt with self; it
        keeps at least two time steps, so t1_index <= n_time - 2."""
        if not 0 <= t1_index <= self.n_time - 2:
            raise GridError(
                f"t1_index {t1_index} out of range: a restriction of {self.n_time} "
                f"time steps needs 0 <= t1_index <= {self.n_time - 2}"
            )
        return TorusGrid(
            dim=self.dim,
            n_space=self.n_space,
            n_time=self.n_time - t1_index,
            t0=self.t0 + t1_index * self.dt,
            T=self.T,
        )

    def compatible(self, other: "TorusGrid") -> bool:
        return (
            self.dim == other.dim
            and self.n_space == other.n_space
            and self.n_time == other.n_time
            and abs(self.t0 - other.t0) < 1e-12
            and abs(self.T - other.T) < 1e-12
        )


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Real grid function, shape (K+1, N) in 1D or (K+1, N, N) in 2D."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.grid.n_time + 1, *self.grid.spatial_shape)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise GridError(
                f"scalar field shape {self.values.shape} != expected {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("scalar field contains non-finite values")


@dataclass
class DensityField(ScalarField):
    """Probability density per time slice: nonnegative, unit discrete mass."""

    def __post_init__(self):
        super().__post_init__()
        self.validate()

    def validate(self):
        worst = np.max(np.abs(self.mass() - 1.0))
        if worst > MASS_TOL:
            raise GridError(
                f"density mass invariant violated: max |mass-1| = {worst:.3e}"
            )
        low = self.values.min()
        if low < -NEG_TOL:
            raise GridError(f"density nonnegativity violated: min = {low:.3e}")

    def mass(self) -> np.ndarray:
        vol = self.grid.cell_volume
        return vol * self.values.reshape(self.grid.n_time + 1, -1).sum(axis=1)


@dataclass
class FluxField:
    """Vector field per node, shape (K+1, *spatial, d)."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.grid.n_time + 1, *self.grid.spatial_shape, self.grid.dim)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise GridError(
                f"flux field shape {self.values.shape} != expected {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("flux field contains non-finite values")


# ---------------------------------------------------------------------------
# stencil operators (on the trailing spatial axes of any leading stack)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic index arrays of the next and the previous node."""
    i = np.arange(n)
    return (i + 1) % n, (i - 1) % n


def _centered_diff(u: np.ndarray, axis: int, dx: float) -> np.ndarray:
    nxt, prev = _neighbours(u.shape[axis])
    return (u.take(nxt, axis=axis) - u.take(prev, axis=axis)) / (2.0 * dx)


def gradient(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """Centered periodic gradient of u (..., *spatial); output (..., *spatial, d)."""
    u = np.asarray(u)
    out = np.empty((*u.shape, grid.dim))
    for a, axis in enumerate(grid.spatial_axes):
        out[..., a] = _centered_diff(u, axis, grid.dx)
    return out


def divergence(grid: TorusGrid, w: np.ndarray) -> np.ndarray:
    """Exact negative adjoint of ``gradient``: sum of centered differences.

    w has shape (..., *spatial, d).  Telescoping of the periodic stencil
    makes integrate(divergence(w)) = 0 to roundoff for every w.
    """
    w = np.asarray(w)
    out = np.zeros(w.shape[:-1])
    for a, axis in enumerate(grid.spatial_axes):
        out += _centered_diff(w[..., a], axis, grid.dx)
    return out


def laplacian(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """divergence(gradient(u)): the width-2 centered stencil per axis.

    Implemented as the literal composition so the stencil identity
    div(grad u) == laplacian(u) holds bitwise, not merely to roundoff.
    """
    return divergence(grid, gradient(grid, u))


def laplacian_symbol(grid: TorusGrid) -> np.ndarray:
    """Fourier multiplier of ``laplacian`` on spatial_shape (real, <= 0)."""
    n = grid.n_space
    k = np.fft.fftfreq(n, d=grid.dx)  # integer wavenumbers / 1
    lam1 = -np.sin(2.0 * np.pi * k * grid.dx) ** 2 / grid.dx**2
    if grid.dim == 1:
        return lam1
    return lam1[:, None] + lam1[None, :]


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------


def integrate(grid: TorusGrid, u_slice: np.ndarray) -> float:
    return float(grid.cell_volume * np.sum(u_slice))


def inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 inner product dx^d * sum(a*b) over one slice."""
    return float(grid.cell_volume * np.sum(a * b))


def l2_norm(grid: TorusGrid, u_slice: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(np.asarray(u_slice) ** 2)))


def sup_norm(u: np.ndarray) -> float:
    return float(np.max(np.abs(u)))


def h1_norm(grid: TorusGrid, u_slice: np.ndarray) -> float:
    g = gradient(grid, u_slice)
    return float(
        np.sqrt(
            grid.cell_volume * np.sum(u_slice**2)
            + grid.cell_volume * np.sum(g**2)
        )
    )


def max_slice_l2_norm(grid: TorusGrid, values: np.ndarray) -> float:
    """Largest ``l2_norm`` over the leading slices of values (..., *spatial)."""
    sq = np.sum(np.asarray(values) ** 2, axis=grid.spatial_axes)
    return float(np.sqrt(grid.cell_volume * np.max(sq)))


def c10_norm(grid: TorusGrid, u_slice: np.ndarray) -> float:
    """sup|u| + sup|Du| on one slice (Du in the Euclidean norm over axes)."""
    return c10_norm_field(grid, u_slice)


def c10_norm_field(grid: TorusGrid, values: np.ndarray) -> float:
    """Largest ``c10_norm`` over the leading slices of values (..., *spatial)."""
    axes = grid.spatial_axes
    gmag = np.sqrt(np.sum(gradient(grid, values) ** 2, axis=-1))
    return float(np.max(np.max(np.abs(values), axis=axes) + np.max(gmag, axis=axes)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"MFGL"
_VERSION = 1
_KIND = {"scalar": 0, "density": 1, "flux": 2}
_KIND_INV = {v: k for k, v in _KIND.items()}
_HEADER = struct.Struct("<4sIIIIIddI")


def _field_kind(f) -> str:
    if isinstance(f, DensityField):
        return "density"
    if isinstance(f, ScalarField):
        return "scalar"
    if isinstance(f, FluxField):
        return "flux"
    raise TypeError(f"not a field: {type(f)!r}")


def field_to_csv(f, path) -> None:
    """One row per node: time index, spatial indices, coordinates, value(s)."""
    grid = f.grid
    kind = _field_kind(f)
    ncomp = grid.dim if kind == "flux" else 1
    xcols = ["x"] if grid.dim == 1 else ["x1", "x2"]
    icols = ["i"] if grid.dim == 1 else ["i1", "i2"]
    vcols = ["value"] if ncomp == 1 else [f"value{a+1}" for a in range(ncomp)]
    header = ",".join(["k", "t", *icols, *xcols, *vcols])
    coords = grid.axis_coordinates()
    lines = [header]
    for k in range(grid.n_time + 1):
        t = grid.t0 + k * grid.dt
        sl = f.values[k].reshape(grid.n_nodes, ncomp)
        for flat in range(grid.n_nodes):
            if grid.dim == 1:
                idx = (flat,)
            else:
                idx = (flat // grid.n_space, flat % grid.n_space)
            parts = [str(k), repr(float(t))]
            parts += [str(i) for i in idx]
            parts += [repr(float(coords[i])) for i in idx]
            parts += [repr(float(v)) for v in sl[flat]]
            lines.append(",".join(parts))
    write_lines(path, lines)


def write_field_binary(f, path) -> None:
    """Self-describing binary layout; round-trips bit-exactly."""
    grid = f.grid
    kind = _field_kind(f)
    ncomp = grid.dim if kind == "flux" else 1
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND[kind],
        grid.dim,
        grid.n_space,
        grid.n_time,
        grid.t0,
        grid.T,
        ncomp,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field_binary(path):
    """The field `write_field_binary` wrote; a damaged file raises GridError
    naming what is wrong (header, kind, component count or payload size)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise GridError(f"field file of {len(raw)} bytes is shorter than its header")
    magic, version, kind_id, dim, n_space, n_time, t0, T, ncomp = _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _VERSION:
        raise GridError("not an mfg-lab field file")
    if kind_id not in _KIND_INV:
        raise GridError(f"unknown field kind id {kind_id}")
    grid = TorusGrid(dim=dim, n_space=n_space, n_time=n_time, t0=t0, T=T)
    kind = _KIND_INV[kind_id]
    if ncomp != (dim if kind == "flux" else 1):
        raise GridError(f"{kind} field of dimension {dim} with {ncomp} components")
    shape = (n_time + 1, *grid.spatial_shape)
    if kind == "flux":
        shape = (*shape, ncomp)
    payload = raw[_HEADER.size :]
    if len(payload) != 8 * math.prod(shape):
        raise GridError(f"field payload of {len(payload)} bytes does not hold shape {shape}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if kind == "density":
        return DensityField(grid, values)
    if kind == "scalar":
        return ScalarField(grid, values)
    return FluxField(grid, values)


def _jsonable(obj):
    """Plain JSON values; a non-finite float (NaN, +-inf) becomes null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def write_lines(path, lines) -> None:
    """The one text writer of every file a run writes (CSV tables, JSON
    records): the lines, each ended by a newline, in UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """A run record (summary, manifest) as `strict_json`, indented by 2."""
    write_lines(path, [strict_json(payload, indent=2)])


def strict_json(payload, indent=None) -> str:
    """The one encoder of every JSON file a run writes (summaries, manifests,
    certificates, branch pairs): keys sorted, non-finite floats as null, so
    the text is strict JSON."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=indent, allow_nan=False)
