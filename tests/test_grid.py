"""Discrete calculus: adjointness, stencil identities, norms, serialization."""

import numpy as np
import pytest

from mfg_lab.grid import (
    DensityField,
    FluxField,
    GridError,
    ScalarField,
    TorusGrid,
    c10_norm,
    divergence,
    field_to_csv,
    gradient,
    h1_norm,
    inner,
    integrate,
    l2_norm,
    laplacian,
    read_field_binary,
    write_field_binary,
)


def grids():
    return [TorusGrid(1, 64, 8), TorusGrid(2, 16, 8)]


@pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
def test_adjointness_random_fields(grid, rng):
    for _ in range(20):
        u = rng.standard_normal(grid.spatial_shape)
        w = rng.standard_normal((*grid.spatial_shape, grid.dim))
        lhs = grid.cell_volume * np.sum(gradient(grid, u) * w)
        rhs = -inner(grid, u, divergence(grid, w))
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
def test_divergence_of_gradient_is_laplacian(grid, rng):
    for _ in range(10):
        u = rng.standard_normal(grid.spatial_shape)
        assert np.max(np.abs(divergence(grid, gradient(grid, u)) - laplacian(grid, u))) <= 1e-12


@pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
def test_divergence_integrates_to_zero(grid, rng):
    for _ in range(10):
        w = rng.standard_normal((*grid.spatial_shape, grid.dim))
        assert abs(integrate(grid, divergence(grid, w))) <= 1e-13


@pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
def test_operators_linear(grid, rng):
    u1 = rng.standard_normal(grid.spatial_shape)
    u2 = rng.standard_normal(grid.spatial_shape)
    a, b = rng.standard_normal(2)
    lhs = gradient(grid, a * u1 + b * u2)
    rhs = a * gradient(grid, u1) + b * gradient(grid, u2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13
    w1 = rng.standard_normal((*grid.spatial_shape, grid.dim))
    w2 = rng.standard_normal((*grid.spatial_shape, grid.dim))
    lhs = divergence(grid, a * w1 + b * w2)
    rhs = a * divergence(grid, w1) + b * divergence(grid, w2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_gradient_constant_and_accuracy():
    grid = TorusGrid(1, 64, 4)
    assert np.max(np.abs(gradient(grid, np.full(64, 3.7)))) == 0.0
    x = grid.axis_coordinates()
    err = np.max(
        np.abs(gradient(grid, np.sin(2 * np.pi * x))[..., 0] - 2 * np.pi * np.cos(2 * np.pi * x))
    )
    # centered-difference Taylor remainder for the first Fourier mode
    assert err <= (2 * np.pi) ** 3 * grid.dx**2 / 6


def test_divergence_accuracy():
    grid = TorusGrid(1, 64, 4)
    x = grid.axis_coordinates()
    w = np.cos(2 * np.pi * x)[..., None]
    err = np.max(np.abs(divergence(grid, w) - (-2 * np.pi * np.sin(2 * np.pi * x))))
    assert err <= (2 * np.pi) ** 3 * grid.dx**2 / 6
    assert np.max(np.abs(divergence(grid, np.zeros((64, 1))))) == 0.0


def test_laplacian_constant_and_eigenfunction():
    grid = TorusGrid(1, 64, 4)
    assert np.max(np.abs(laplacian(grid, np.ones(64)))) == 0.0
    x = grid.axis_coordinates()
    u = np.sin(2 * np.pi * x)
    err = np.max(np.abs(laplacian(grid, u) + 4 * np.pi**2 * u))
    # width-2 centered stencil: remainder (2 pi)^4 (2 dx)^2 / 12
    assert err <= 1.1 * (2 * np.pi) ** 4 * (2 * grid.dx) ** 2 / 12


def test_grid_invariants():
    with pytest.raises(GridError):
        TorusGrid(1, 3, 8)
    with pytest.raises(GridError):
        TorusGrid(1, 8, 1)
    with pytest.raises(GridError):
        TorusGrid(1, 8, 8, 1.0, 0.5)
    with pytest.raises(GridError):
        TorusGrid(3, 8, 8)
    grid = TorusGrid(1, 48, 8)
    assert np.allclose(grid.axis_coordinates(), np.arange(48) / 48, atol=0)
    assert grid.time_index(grid.t0 + 3 * grid.dt) == 3
    with pytest.raises(GridError):
        grid.time_index(grid.t0 + 0.5 * grid.dt)
    sub = grid.restrict(3)
    assert sub.n_time == 5 and abs(sub.t0 - (grid.t0 + 3 * grid.dt)) < 1e-15
    # a restriction keeps two time steps at least
    assert grid.restrict(6).n_time == 2
    for t1 in (-1, 7, 8):
        with pytest.raises(GridError, match=f"t1_index {t1} out of range.*<= 6"):
            grid.restrict(t1)


def test_field_validation():
    grid = TorusGrid(1, 8, 2)
    with pytest.raises(GridError):
        ScalarField(grid, np.zeros((2, 8)))
    bad = np.zeros((3, 8))
    bad[1, 2] = np.inf
    with pytest.raises(GridError):
        ScalarField(grid, bad)
    ones = np.ones((3, 8))
    DensityField(grid, ones)  # unit mass
    with pytest.raises(GridError):
        DensityField(grid, 1.1 * ones)
    neg = ones.copy()
    neg[0, 0] = -1e-3
    neg[0, 1] += 1e-3
    with pytest.raises(GridError):
        DensityField(grid, neg)
    with pytest.raises(GridError):
        FluxField(grid, np.zeros((3, 8)))


def test_density_mass_tracking():
    grid = TorusGrid(1, 16, 4)
    m = DensityField(grid, np.ones((5, 16)))
    assert np.max(np.abs(m.mass() - 1.0)) <= 1e-12
    assert abs(integrate(grid, m.values[0]) - 1.0) <= 1e-12


def test_norms():
    grid = TorusGrid(1, 64, 4)
    x = grid.axis_coordinates()
    u = np.sin(2 * np.pi * x)
    assert abs(l2_norm(grid, u) - np.sqrt(0.5)) < 1e-3
    assert abs(c10_norm(grid, u) - (1.0 + 2 * np.pi)) < 0.02
    assert h1_norm(grid, u) > l2_norm(grid, u)


@pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
def test_binary_roundtrip_bit_exact(grid, rng, tmp_path):
    fields = [
        ScalarField(grid, rng.standard_normal((grid.n_time + 1, *grid.spatial_shape))),
        FluxField(
            grid, rng.standard_normal((grid.n_time + 1, *grid.spatial_shape, grid.dim))
        ),
    ]
    m = np.abs(rng.standard_normal((grid.n_time + 1, *grid.spatial_shape))) + 0.5
    m /= (m.reshape(grid.n_time + 1, -1).sum(axis=1) * grid.cell_volume).reshape(
        -1, *([1] * grid.dim)
    )
    fields.append(DensityField(grid, m))
    for i, f in enumerate(fields):
        path = tmp_path / f"f{i}.bin"
        write_field_binary(f, path)
        back = read_field_binary(path)
        assert type(back) is type(f)
        assert back.grid.compatible(grid)
        assert np.array_equal(back.values, f.values)  # bit-exact


def _with_byte(raw, offset, value):
    """raw with one byte replaced: the header's kind id is at 8, ncomp at 40."""
    return raw[:offset] + bytes([value]) + raw[offset + 1 :]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda raw: raw[:-8], "payload of 184 bytes does not hold shape"),
        (lambda raw: raw + bytes(8), "payload of 200 bytes does not hold shape"),
        (lambda raw: _with_byte(raw, 8, 7), "unknown field kind id 7"),
        (lambda raw: raw[:10], "file of 10 bytes is shorter than its header"),
        (lambda raw: _with_byte(raw, 40, 2), "scalar field of dimension 1 with 2 components"),
    ],
    ids=["truncated", "extra-bytes", "unknown-kind", "10-byte-file", "ncomp"],
)
def test_damaged_binary_field_raises_grid_error(tmp_path, damage, message):
    grid = TorusGrid(1, 8, 2)  # 3 slices of 8 nodes: a 192-byte payload
    path = tmp_path / "f.bin"
    write_field_binary(ScalarField(grid, np.zeros((3, 8))), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(GridError, match=message):
        read_field_binary(path)


def _scalar_field_from_csv(grid, path) -> ScalarField:
    """The scalar field `field_to_csv` wrote: k and the node indices locate
    each row's value."""
    values = np.zeros((grid.n_time + 1, *grid.spatial_shape))
    with open(path, encoding="utf-8") as fh:
        ncols = len(fh.readline().strip().split(","))
        for line in fh:
            parts = line.strip().split(",")
            assert len(parts) == ncols, "malformed field CSV row"
            values[(int(parts[0]), *map(int, parts[2 : 2 + grid.dim]))] = float(parts[-1])
    return ScalarField(grid, values)


def test_csv_roundtrip(tmp_path, rng):
    grid = TorusGrid(1, 8, 3)
    f = ScalarField(grid, rng.standard_normal((4, 8)))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    back = _scalar_field_from_csv(grid, path)
    assert np.array_equal(back.values, f.values)
