"""Uniform finite-difference grids with homogeneous Dirichlet boundaries.

Three geometry names, two kinds of grid:

  line    1d interval [-L, L], n nodes, both ends pinned to zero
  box     tensor product of [-L, L] per axis (dimension 2 or 3)
  radial  [0, L] with r = i*h; regularity at r = 0, Dirichlet at r = L;
          used for radially symmetric profiles in dimension >= 2

A line is the one-dimensional box: shapes, weights and the Laplacian
(a Kronecker sum of the 1d stencil over the axes) take one
tensor-product path for both, and only the radial grid has its own.
Fields of one parity per axis live on the kept nodes of a `Fold`,
which maps to and from them by indexing; each stands for its
`multiplicity` of nodes, and `neg_laplacian` restricts to them. Line
and radial grids also give their -lap as three `bands` of their fold,
from which the solvers work without any sparse matrix; box grids
assemble the Kronecker sum of the same axis bands straight from its
bands. Fields are
stored on the full node set with boundary entries kept at zero; linear
operators act on the interior unknowns only.

The memo: `fold(grid, parity)` returns one `Fold` per (grid, parity),
the same object on every call, so the Newton solves, the slope, the
spectrum and the time steps share its arrays. It is lazy: nothing is
built at import, and a fold builds each of its arrays on first use. It
is bounded: it keeps the FOLD_MEMO folds used last. Its arrays are
read-only. It holds the index maps of the fold and arrays on its kept
nodes (multiplicities, weights, line bands) only: the node coordinates
of a box and its Z field are built by the solve that uses them and live
no longer. `Grid.axis`, n numbers, is kept with its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gamma, inf, pi, prod

import numpy as np
import scipy.sparse as sp

from .errors import SchemaError

GEOMETRIES = ("line", "radial", "box")
MAX_NODES = 2**24  # nodes in all, n ** dimension on a line or box: 128 MiB per float field
FOLD_MEMO = 16  # folds `fold` keeps, the least recently used dropped first


def sphere_area(dim: int) -> float:
    # surface measure of the unit sphere in R^dim; 2 for dim=1 by convention
    return 2.0 * pi ** (dim / 2.0) / gamma(dim / 2.0)


@dataclass(frozen=True)
class Grid:
    """Geometry descriptor. `extent` is L, `n` is nodes per axis; a grid of
    more than MAX_NODES nodes in all is rejected before any allocation."""

    dimension: int
    geometry: str
    extent: float
    n: int

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise SchemaError("/grid/geometry", f"unknown geometry {self.geometry!r}")
        if self.dimension not in (1, 2, 3):
            raise SchemaError("/grid/dimension", "dimension must be 1, 2 or 3")
        if self.geometry == "line" and self.dimension != 1:
            raise SchemaError("/grid/geometry", "line grid is one-dimensional")
        if self.geometry == "radial" and self.dimension < 2:
            raise SchemaError("/grid/geometry", "radial grid needs dimension >= 2")
        if self.geometry == "box" and self.dimension < 2:
            raise SchemaError("/grid/geometry", "box grid needs dimension >= 2")
        if self.n < 8:
            raise SchemaError("/grid/n", "need at least 8 nodes per axis")
        if prod(self.shape) > MAX_NODES:
            raise SchemaError("/grid/n", f"a grid has at most {MAX_NODES} nodes in all")
        if not (0 < self.extent < inf):
            raise SchemaError("/grid/extent", "extent must be finite and positive")

    @property
    def h(self) -> float:
        if self.geometry == "radial":
            return self.extent / (self.n - 1)
        return 2.0 * self.extent / (self.n - 1)

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis, built once per grid, read-only."""
        if self.geometry == "radial":
            return _readonly(np.linspace(0.0, self.extent, self.n))
        return _readonly(np.linspace(-self.extent, self.extent, self.n))

    @property
    def shape(self) -> tuple:
        if self.geometry == "radial":
            return (self.n,)
        return (self.n,) * self.dimension

    def points(self) -> np.ndarray:
        """Node coordinates, shape (*shape, dimension).

        Radial nodes are placed on the first coordinate axis so that
        potentials (radially evaluated through |x|) can be sampled.
        """
        if self.geometry == "radial":
            pts = np.zeros((self.n, self.dimension))
            pts[:, 0] = self.axis
            return pts
        axes = np.meshgrid(*([self.axis] * self.dimension), indexing="ij")
        return np.stack(axes, axis=-1)

    def weights(self) -> np.ndarray:
        """Quadrature weights over the full node set (trapezoid rule).

        Radial weights carry the surface factor sigma * r^(dim-1), so
        sums approximate integrals over R^dim restricted to the ball.
        """
        w1 = np.full(self.n, self.h)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        if self.geometry == "radial":
            r = self.axis
            return sphere_area(self.dimension) * r ** (self.dimension - 1) * w1
        w = w1
        for _ in range(self.dimension - 1):
            w = np.multiply.outer(w, w1)
        return w

    def interior(self) -> tuple:
        if self.geometry == "radial":
            return (slice(0, self.n - 1),)
        return (slice(1, self.n - 1),) * self.dimension

    def n_interior(self) -> int:
        if self.geometry == "radial":
            return self.n - 1
        return (self.n - 2) ** self.dimension

    def radii(self) -> np.ndarray:
        """|y| per node (used for moment integrals)."""
        pts = self.points()
        return np.sqrt(np.sum(pts**2, axis=-1))


def _mirror(m: int, parity: int):
    """(kept, source, sign) of an axis fold on m interior nodes.

    Parity 0 keeps every node. A folded axis keeps its right half, a
    centre node only if even. Node i holds sign[i] times kept node number
    source[i]: 1 times itself if kept, else `parity` times its mirror
    image, and 0 at an odd field's centre node.
    """
    kept = np.arange(m // 2 + (m % 2) * (parity < 0) if parity else 0, m)
    source, sign = np.zeros(m, dtype=int), np.zeros(m)
    source[m - 1 - kept], sign[m - 1 - kept] = np.arange(kept.size), parity
    # after the mirror images: an even centre node is its own
    source[kept], sign[kept] = np.arange(kept.size), 1.0
    return kept, source, sign


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Fold:
    """The fold of a grid's interior nodes by `parity`, whose arrays are
    built on first use and read-only; `fold` memoises one per (grid, parity).

    `parity` holds one of 0 (all nodes), +1 (even) or -1 (odd about the
    centre) per axis. The extension E from the kept nodes to the interior
    nodes is the tensor product of the axis folds of `_mirror`: each
    interior node is a signed copy of one kept node, so E is a gather
    (`extend`, u -> E u) and E^T a scatter-add (`restrict`, v -> E^T v),
    with no sparse matrix. A radial grid, whose parity is None, does not
    fold, and both maps are the identity.
    """

    grid: Grid
    parity: tuple | None

    @cached_property
    def kept(self) -> np.ndarray:
        """The interior nodes a field of the parity keeps, as raveled indices."""
        m = self.grid.n - 2
        kept = [_mirror(m, s)[0] for s in self.parity]
        return _readonly(np.ravel_multi_index(np.ix_(*kept), (m,) * self.grid.dimension).ravel())

    @cached_property
    def masses(self) -> tuple:
        """Per axis, how many nodes of the axis each kept one stands for."""
        m, h = self.grid.n - 2, self.grid.h
        return tuple(_readonly(_axis_bands(m, h, s)[2]) for s in self.parity)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """diag(E^T E): how many interior nodes each kept node stands for.
        Ones where nothing folds."""
        if self.parity is None:
            return _readonly(np.ones(self.grid.n_interior()))
        return _readonly(reduce(np.multiply.outer, self.masses).ravel())

    @cached_property
    def weights(self) -> np.ndarray:
        """E^T of the interior quadrature weights: each kept node's weight
        times its multiplicity."""
        return _readonly(self.restrict(extract_interior(self.grid, self.grid.weights())))

    @cached_property
    def _gather(self):
        """(source, sign) of E: interior node i is sign[i] times kept node
        source[i]; None where nothing folds."""
        if not self.parity or not any(self.parity):
            return None
        kept, sources, signs = zip(*[_mirror(self.grid.n - 2, s) for s in self.parity])
        shape = tuple(k.size for k in kept)
        source = np.ravel_multi_index(np.ix_(*sources), shape).ravel()
        return _readonly(source), _readonly(reduce(np.multiply.outer, signs).ravel())

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """E^T v. bincount adds up a kept node's images in the order of
        their full index, as a sparse product with E^T would: the same sums
        to the bit."""
        if self._gather is None:
            return v
        source, sign = self._gather
        return np.bincount(source, weights=sign * v)

    def extend(self, u: np.ndarray) -> np.ndarray:
        """E u."""
        if self._gather is None:
            return u
        source, sign = self._gather
        return sign * u[source]

    @cached_property
    def bands(self) -> tuple:
        """-lap on a line or radial grid as its bands (lower, main, upper).

        On a line, the bands of `neg_laplacian(grid, parity)`; the radial
        stencil is not symmetric.
        """
        grid = self.grid
        if grid.geometry != "radial":
            main, off, _ = _axis_bands(grid.n - 2, grid.h, self.parity[0] if self.parity else 0)
            off = _readonly(off)
            return off, _readonly(main), off
        h = grid.h
        m = grid.n - 1
        d = grid.dimension
        i = np.arange(1, m)
        main = np.full(m, 2.0 / h**2)
        upper = -(1.0 + (d - 1) / (2.0 * i)) / h**2
        lower = -(1.0 - (d - 1) / (2.0 * i)) / h**2
        up = np.empty(m - 1)
        # row 0 is the regularized center: lap u(0) ~ 2d (u1 - u0)/h^2
        main[0] = 2.0 * d / h**2
        up[0] = -2.0 * d / h**2
        up[1:] = upper[:-1]
        return _readonly(lower), _readonly(main), _readonly(up)


@lru_cache(maxsize=FOLD_MEMO)
def fold(grid: Grid, parity) -> Fold:
    """The memoised `Fold` of `grid` by `parity` (a tuple, or None)."""
    return Fold(grid, parity)


def neg_laplacian(grid: Grid, parity=None):
    """-Laplace operator on interior unknowns, CSR matrix.

    Second-order centered stencil. The radial operator carries the
    (dim-1)/r first-order term and the r=0 row uses the regularized
    limit  lap u(0) = dim * u''(0)  for even profiles.

    On line and box grids, E^T (-lap) E for the extension E of the
    `Fold` (the default parity, all 0, gives -lap): the
    multiplicities times the stencil with a mirror ghost node (even) or
    a Dirichlet plane (odd) at the centre, symmetric. An odd n puts a
    node on the plane, an even n two nodes astride it. It is the
    Kronecker sum of the axis stencils of `_axis_bands` (the bands that
    `Fold.bands` returns on a line), assembled from its bands by one
    `diags_array`: the main band, and per axis one band at +-stride, the
    axis's off band times the other axes' masses, zero where the axis
    index wraps. The masses are 1 or 2, so every product is exact, and
    the main band sums its axis terms in axis order: the matrix of the
    sparse Kronecker sum, to the bit.
    """
    if grid.geometry == "radial":
        lower, main, upper = fold(grid, None).bands
        return sp.diags_array([lower, main, upper], offsets=[-1, 0, 1], format="csr")
    axes = [_axis_bands(grid.n - 2, grid.h, s) for s in parity or (0,) * grid.dimension]
    masses = [mass for _, _, mass in axes]

    def term(a, band):
        # `band` on axis a times the masses of the other axes, raveled
        return reduce(np.multiply.outer, masses[:a] + [band] + masses[a + 1 :]).ravel()

    main, strides, offs = 0.0, [], []
    for a, (diag, off, _) in enumerate(axes):
        main = main + term(a, diag)
        strides.append(prod(m.size for m in masses[a + 1 :]))
        offs.append(term(a, np.append(off, 0.0))[: -strides[-1]])
    # the strides fall with the axis, so the offsets ascend: every scipy
    # converts the bands to sorted column indices
    offsets = [-s for s in strides] + [0] + strides[::-1]
    return sp.diags_array(offs + [main] + offs[::-1], offsets=offsets, format="csr")


def _axis_bands(m: int, h: float, parity: int):
    """(main, off, mass): the bands of E^T A E and E^T E for A = -d^2/dx^2
    on m nodes, E the axis fold.

    Folding doubles A's rows, a kept node standing for its mirror image
    too, except at the first kept node: a plane node (even, odd m) has
    multiplicity 1 and its right neighbour as mirror ghost; the node
    right of the plane (even m) has its partner as left neighbour, added
    (even) or subtracted (odd); an odd field's first node (odd m) sees
    the zero of the plane node.
    """
    if parity == 0:
        return np.full(m, 2.0 / h**2), np.full(m - 1, -1.0 / h**2), np.ones(m)
    r = m - (m // 2 + (m % 2) * (parity < 0))  # `_mirror`'s kept node count
    main, off, mass = np.full(r, 4.0 / h**2), np.full(r - 1, -2.0 / h**2), np.full(r, 2.0)
    main[0] = (2.0 if parity > 0 else 6.0 - 2.0 * (m % 2)) / h**2
    if parity > 0 and m % 2:
        mass[0] = 1.0
    return main, off, mass


def extract_interior(grid: Grid, field: np.ndarray) -> np.ndarray:
    return field[grid.interior()].ravel()


def insert_interior(grid: Grid, vec: np.ndarray) -> np.ndarray:
    out = np.zeros(grid.shape, dtype=vec.dtype)
    inner = grid.interior()
    out[inner] = vec.reshape(out[inner].shape)
    return out


def interpolate_radial(radial_grid: Grid, values: np.ndarray, target_radii: np.ndarray) -> np.ndarray:
    """Cubic interpolation of a radial profile onto arbitrary radii.

    The clamped cubic spline (zero slope at both ends) of scipy's
    `CubicSpline(r, values, bc_type=((1, 0.0), (1, 0.0)))`, to the bit:
    its node slopes from the same tridiagonal system and `solve_banded`
    call, its piecewise coefficients from the same expressions, and each
    piece evaluated in PPoly's order, ascending powers of s = r - r_i.
    This keeps `scipy.interpolate` (about 12 MB and 0.2 to 0.4 s to
    import) out of the run. Radii beyond the radial extent map to zero
    (the profile has decayed there by construction).
    """
    from scipy.linalg import solve_banded

    x, y = radial_grid.axis, np.asarray(values, dtype=float)
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    ab[1, 0] = ab[1, -1] = 1.0  # clamped: s[0] = s[-1] = 0
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = b[-1] = 0.0
    s = solve_banded(
        (1, 1), ab, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True, check_finite=False
    ).reshape(n)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    r = np.clip(target_radii, 0.0, radial_grid.extent)
    # the piece r lies in, [r_i, r_(i+1)), the last one closed
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, n - 2)
    d = r - x[i]
    d2 = d * d
    spline = ((c3[i] + c2[i] * d) + c1[i] * d2) + c0[i] * (d2 * d)
    return np.where(target_radii <= radial_grid.extent, spline, 0.0)
