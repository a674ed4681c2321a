import itertools
from functools import reduce

import numpy as np
import pytest

from kgstab import grids
from kgstab.errors import SchemaError
from kgstab.grids import GEOMETRIES, Grid, sphere_area

from conftest import assert_same_sparse, kronecker_sum_laplacian


def test_geometry_validation():
    with pytest.raises(SchemaError):
        Grid(2, "line", 10.0, 101)
    with pytest.raises(SchemaError):
        Grid(1, "radial", 10.0, 101)
    with pytest.raises(SchemaError):
        Grid(1, "box", 10.0, 101)
    with pytest.raises(SchemaError):
        Grid(1, "line", 10.0, 4)
    with pytest.raises(SchemaError):
        Grid(1, "line", -1.0, 101)


@pytest.mark.parametrize(
    "dim, geometry, n",
    [
        (1, "line", 10**9),
        (1, "line", 10**400),
        (2, "box", 4097),
        (3, "box", 257),
        (2, "radial", 2**24 + 1),
    ],
)
def test_oversize_grid_is_rejected_before_allocation(dim, geometry, n):
    # checked in the constructor, from the node count alone
    with pytest.raises(SchemaError) as err:
        Grid(dim, geometry, 10.0, n)
    assert err.value.path == "/grid/n"


def test_largest_grids_are_accepted():
    assert grids.MAX_NODES == 2**24
    largest = [(1, "line", 2**24), (2, "box", 4096), (3, "radial", 2**24)]
    for dim, geometry, n in largest:
        assert Grid(dim, geometry, 10.0, n).n_interior() < grids.MAX_NODES


def test_line_axis_and_spacing():
    g = Grid(1, "line", 10.0, 201)
    assert g.h == pytest.approx(0.1)
    assert g.axis[0] == -10.0 and g.axis[-1] == 10.0
    assert g.points().shape == (201, 1)


def test_weights_integrate_gaussian():
    # trapezoid weights against the analytic integral per geometry;
    # the radial rule is O(h^2) with a nonzero slope at r = 0
    for geom, dim, exact in (
        ("line", 1, np.sqrt(np.pi)),
        ("radial", 2, np.pi),
        ("radial", 3, np.pi ** 1.5),
        ("box", 2, np.pi),
    ):
        n = 141 if geom == "box" else 2001
        g = Grid(dim, geom, 14.0, n)
        pts = g.points()
        r2 = np.sum(pts**2, axis=-1)
        val = float(np.sum(g.weights() * np.exp(-r2)))
        assert val == pytest.approx(exact, rel=1e-4), (geom, dim)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi)


def test_interior_round_trip_preserves_dtype():
    g = Grid(2, "box", 5.0, 21)
    field = np.zeros(g.shape, dtype=complex)
    field[g.interior()] = 1j * np.random.default_rng(3).standard_normal(
        (g.n - 2, g.n - 2)
    )
    vec = grids.extract_interior(g, field)
    assert vec.dtype == np.complex128
    back = grids.insert_interior(g, vec)
    assert np.array_equal(back, field)


def test_neg_laplacian_symmetric_and_positive():
    for g in (Grid(1, "line", 8.0, 161), Grid(2, "box", 4.0, 17)):
        A = grids.neg_laplacian(g)
        assert abs(A - A.T).max() == 0.0
        v = np.random.default_rng(7).standard_normal(A.shape[0])
        assert v @ (A @ v) > 0.0


def test_neg_laplacian_eigenvalue_line():
    # lowest Dirichlet mode on (-L, L): sin(pi (x+L) / (2L)), eigenvalue (pi/2L)^2
    g = Grid(1, "line", 6.0, 1201)
    A = grids.neg_laplacian(g)
    x = g.axis[1:-1]
    v = np.sin(np.pi * (x + g.extent) / (2.0 * g.extent))
    lam = (v @ (A @ v)) / (v @ v)
    assert lam == pytest.approx((np.pi / (2.0 * g.extent)) ** 2, rel=1e-4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_neg_laplacian_is_the_kronecker_sum_of_the_line_stencil(dim):
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, 9)
    m = g.n - 2
    one = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / g.h**2
    want = sum(
        reduce(np.kron, [one if b == a else np.eye(m) for b in range(dim)])
        for a in range(dim)
    )
    got = grids.neg_laplacian(g).toarray()
    assert got.shape == (m**dim, m**dim)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 / g.h**2)


def _parities(dim):
    return list(itertools.product((0, 1, -1), repeat=dim))


def _extension(g, parity):
    """E of the fold, built column by column from its `extend`."""
    fold = grids.fold(g, parity)
    return np.column_stack([fold.extend(col) for col in np.eye(fold.kept.size)])


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fold_then_unfold_is_the_identity_on_fields_of_its_parity(dim, n):
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, n)
    shape = (n - 2,) * dim
    rng = np.random.default_rng(dim * n)
    for parity in _parities(dim):
        field = rng.standard_normal(shape)
        for a, s in enumerate(parity):
            if s:
                field = 0.5 * (field + s * np.flip(field, axis=a))
        x = field.ravel()
        e = _extension(g, parity)
        mult = (e.T @ e).diagonal()
        assert set(mult) <= {1.0, 2.0, 4.0, 8.0}
        np.testing.assert_allclose(e @ ((e.T @ x) / mult), x, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_restrict_is_the_transpose_of_extend_and_multiplicity_its_gram_diagonal(dim, n):
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, n)
    rng = np.random.default_rng(dim * n)
    for parity in _parities(dim):
        e = _extension(g, parity)
        fold = grids.fold(g, parity)
        v = rng.standard_normal(e.shape[0])
        np.testing.assert_allclose(fold.restrict(v), e.T @ v, rtol=0.0, atol=1e-14)
        assert np.array_equal(fold.multiplicity, (e.T @ e).diagonal()), parity


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_folded_stencils_are_the_restriction_of_the_full_laplacian(dim, n):
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, n)
    full = grids.neg_laplacian(g).toarray()
    for parity in _parities(dim):
        e = _extension(g, parity)
        got = grids.neg_laplacian(g, parity).toarray()
        assert np.allclose(got, e.T @ full @ e, rtol=0.0, atol=1e-12 / g.h**2), parity
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_banded_laplacian_is_the_sparse_kronecker_sum_to_the_bit(dim, n):
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, n)
    for parity in _parities(dim):
        assert_same_sparse(grids.neg_laplacian(g, parity), kronecker_sum_laplacian(g, parity))
    assert_same_sparse(grids.neg_laplacian(g), kronecker_sum_laplacian(g, (0,) * dim))


def _axis_bands_from_mirror(m, h, parity):
    """`grids._axis_bands` as it was when it sized the folded bands from
    `_mirror`'s kept nodes."""
    r = grids._mirror(m, parity)[0].size
    main, off, mass = np.full(r, 4.0 / h**2), np.full(r - 1, -2.0 / h**2), np.full(r, 2.0)
    main[0] = (2.0 if parity > 0 else 6.0 - 2.0 * (m % 2)) / h**2
    if parity > 0 and m % 2:
        mass[0] = 1.0
    return main, off, mass


@pytest.mark.parametrize("parity", [1, -1])
def test_axis_bands_count_kept_nodes_without_the_mirror(parity, monkeypatch):
    h = 0.37
    expected = {m: _axis_bands_from_mirror(m, h, parity) for m in range(3, 42)}
    calls = []
    mirror = grids._mirror
    monkeypatch.setattr(grids, "_mirror", lambda *args: calls.append(args) or mirror(*args))
    for m, bands in expected.items():
        got = grids._axis_bands(m, h, parity)
        for a, b in zip(got, bands):
            assert np.array_equal(a, b), m
    assert calls == []


def test_radial_laplacian_matches_continuum():
    # -lap on exp(-r^2) in d dimensions: (2d - 4 r^2) exp(-r^2)
    for dim in (2, 3):
        g = Grid(dim, "radial", 10.0, 2001)
        r = g.axis
        f = np.exp(-(r**2))
        A = grids.neg_laplacian(g)
        res = grids.insert_interior(g, A @ grids.extract_interior(g, f))
        exact = (2.0 * dim - 4.0 * r**2) * f
        inner = slice(1, g.n - 1)
        assert np.max(np.abs(res - exact)[inner]) < 5e-4, dim


def test_geometries_constant():
    assert GEOMETRIES == ("line", "radial", "box")


def _fold_arrays(fold):
    """Every array a fold keeps, each built by this call if it was not."""
    arrays = [fold.kept, fold.multiplicity, fold.weights, *fold.masses, *(fold._gather or ())]
    if fold.grid.geometry == "line":
        arrays += list(fold.bands)
    return arrays


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_memoised_folds_are_read_only_and_equal_a_fresh_build(dim, n):
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, n)
    rng = np.random.default_rng(dim * n)
    for parity in _parities(dim):
        fold = grids.fold(g, parity)
        assert grids.fold(Grid(dim, g.geometry, 3.0, n), parity) is fold  # one per (grid, parity)
        fresh = grids.Fold(g, parity)
        for got, want in zip(_fold_arrays(fold), _fold_arrays(fresh)):
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0
            assert got.dtype == want.dtype and np.array_equal(got, want), parity
        v, u = rng.standard_normal(fold.grid.n_interior()), rng.standard_normal(fold.kept.size)
        assert np.array_equal(fold.restrict(v), fresh.restrict(v))
        assert np.array_equal(fold.extend(u), fresh.extend(u))


def test_fold_memo_is_lazy_and_bounded():
    grids.fold.cache_clear()
    g = Grid(2, "box", 3.0, 11)
    fold = grids.fold(g, (1, -1))
    # nothing is built until it is asked for
    assert not {"kept", "multiplicity", "weights", "_gather", "masses", "bands"} & set(vars(fold))
    assert fold.kept.size == 5 * 4
    assert set(vars(fold)) & {"kept", "multiplicity", "_gather"} == {"kept"}
    for n in range(12, 12 + grids.FOLD_MEMO):
        grids.fold(Grid(2, "box", 3.0, n), (1, -1))
    info = grids.fold.cache_info()
    assert info.currsize == info.maxsize == grids.FOLD_MEMO
    # the least recently used fold was dropped
    assert grids.fold(g, (1, -1)) is not fold


def test_grid_axis_is_built_once_and_read_only():
    g = Grid(1, "line", 2.0, 9)
    assert g.axis is g.axis
    assert not g.axis.flags.writeable
    assert np.array_equal(g.axis, np.linspace(-2.0, 2.0, 9))


@pytest.mark.parametrize("n", [8, 9, 64, 401])
def test_radial_interpolation_is_scipys_clamped_cubic_spline_to_the_bit(n):
    from scipy.interpolate import CubicSpline

    g = Grid(2, "radial", 7.5, n)
    rng = np.random.default_rng(n)
    values = np.exp(-g.axis**2) + 0.1 * rng.standard_normal(n)
    inside = rng.uniform(0.0, g.extent, 300 + n % 2)  # an even count in all
    radii = np.concatenate([inside, g.axis, [0.0, g.extent, np.nextafter(g.extent, 9.0), 9.0]])
    radii = radii.reshape(-1, 2)  # a 2d target, as a box's radii are
    got = grids.interpolate_radial(g, values, radii)
    spline = CubicSpline(g.axis, values, bc_type=((1, 0.0), (1, 0.0)))
    want = np.where(radii <= g.extent, spline(np.clip(radii, 0.0, g.extent)), 0.0)
    assert got.shape == radii.shape
    assert got.tobytes() == want.tobytes()
