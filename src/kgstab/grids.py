"""Uniform finite-difference grids with homogeneous Dirichlet boundaries.

Three geometry names, two kinds of grid:

  line    1d interval [-L, L], n nodes, both ends pinned to zero
  box     tensor product of [-L, L] per axis (dimension 2 or 3)
  radial  [0, L] with r = i*h; regularity at r = 0, Dirichlet at r = L;
          used for radially symmetric profiles in dimension >= 2

A line is the one-dimensional box: shapes, weights, gradients and the
Laplacian (a Kronecker sum of the 1d stencil over the axes) take one
tensor-product path for both, and only the radial grid has its own.
Fields of one parity per axis live on the kept nodes of `fold_maps`,
which maps to and from them by indexing; each stands for its
`multiplicity` of nodes, and `neg_laplacian` restricts to them. Line
and radial grids also give their -lap as three `bands`, from which the
solvers work without any sparse matrix; box grids assemble the sparse
Kronecker sum of the same axis bands. Fields are stored on the full
node set with boundary entries kept at zero; linear operators act on
the interior unknowns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gamma, inf, pi

import numpy as np
import scipy.sparse as sp

from .errors import SchemaError

GEOMETRIES = ("line", "radial", "box")


def sphere_area(dim: int) -> float:
    # surface measure of the unit sphere in R^dim; 2 for dim=1 by convention
    return 2.0 * pi ** (dim / 2.0) / gamma(dim / 2.0)


@dataclass(frozen=True)
class Grid:
    """Geometry descriptor. `extent` is L, `n` is nodes per axis."""

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
        if not (0 < self.extent < inf):
            raise SchemaError("/grid/extent", "extent must be finite and positive")

    @property
    def h(self) -> float:
        if self.geometry == "radial":
            return self.extent / (self.n - 1)
        return 2.0 * self.extent / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        if self.geometry == "radial":
            return np.linspace(0.0, self.extent, self.n)
        return np.linspace(-self.extent, self.extent, self.n)

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


def kept_nodes(grid: Grid, parity) -> np.ndarray:
    """The interior nodes a field of `parity` keeps, as raveled indices."""
    m = grid.n - 2
    kept = [_mirror(m, s)[0] for s in parity]
    return np.ravel_multi_index(np.ix_(*kept), (m,) * grid.dimension).ravel()


def multiplicity(grid: Grid, parity) -> np.ndarray:
    """diag(E^T E) for the extension E of `fold_maps`: how many interior
    nodes each kept node stands for. Ones where nothing folds."""
    if parity is None:
        return np.ones(grid.n_interior())
    masses = [_axis_bands(grid.n - 2, grid.h, s)[2] for s in parity]
    return reduce(np.multiply.outer, masses).ravel()


def fold_maps(grid: Grid, parity):
    """(restrict, extend): v -> E^T v and u -> E u, for E the extension
    from the kept nodes of `parity` to the interior nodes.

    `parity` holds one of 0 (all nodes), +1 (even) or -1 (odd about the
    centre) per axis. E is the tensor product of the axis folds of
    `_mirror`: each interior node is a signed copy of one kept node, so
    E is a gather and E^T a scatter-add, with no sparse matrix. A radial
    grid, whose parity is None, does not fold, and both maps are the
    identity.
    """
    if not parity or not any(parity):
        return (lambda v: v), (lambda u: u)
    kept, sources, signs = zip(*[_mirror(grid.n - 2, s) for s in parity])
    shape = tuple(k.size for k in kept)
    source = np.ravel_multi_index(np.ix_(*sources), shape).ravel()
    sign = reduce(np.multiply.outer, signs).ravel()
    # bincount adds up a kept node's images in the order of their full
    # index, as a sparse product with E^T would: the same sums to the bit
    return (lambda v: np.bincount(source, weights=sign * v)), (lambda u: sign * u[source])


def bands(grid: Grid, parity=None):
    """-lap on a line or radial grid as its bands (lower, main, upper).

    On a line, the bands of `neg_laplacian(grid, parity)`; the radial
    stencil is not symmetric.
    """
    if grid.geometry != "radial":
        main, off, _ = _axis_bands(grid.n - 2, grid.h, parity[0] if parity else 0)
        return off, main, off
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
    return lower, main, up


def neg_laplacian(grid: Grid, parity=None):
    """-Laplace operator on interior unknowns, CSR matrix.

    Second-order centered stencil. The radial operator carries the
    (dim-1)/r first-order term and the r=0 row uses the regularized
    limit  lap u(0) = dim * u''(0)  for even profiles.

    On line and box grids, E^T (-lap) E for the extension E of
    `fold_maps` (the default parity, all 0, gives -lap): the
    multiplicities times the stencil with a mirror ghost node (even) or
    a Dirichlet plane (odd) at the centre, symmetric. An odd n puts a
    node on the plane, an even n two nodes astride it. Both are
    assembled from the bands that `bands` returns.
    """
    if grid.geometry == "radial":
        lower, main, upper = bands(grid)
        return sp.diags_array([main, upper, lower], offsets=[0, 1, -1]).tocsr()
    # line and box: Kronecker sum of the axis stencils
    axes = range(grid.dimension)
    parity = parity or (0,) * grid.dimension
    stencils, masses = [], []
    for s in parity:
        main, off, mass = _axis_bands(grid.n - 2, grid.h, s)
        stencils.append(sp.diags_array([main, off, off], offsets=[0, 1, -1]))
        masses.append(sp.diags_array(mass))
    terms = [reduce(sp.kron, [stencils[b] if b == a else masses[b] for b in axes]) for a in axes]
    return sum(terms[1:], terms[0]).tocsr()


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
    r = _mirror(m, parity)[0].size
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


def gradient(grid: Grid, field: np.ndarray) -> list[np.ndarray]:
    """Centered second-order gradient components on the full node set.

    Boundary nodes get one-sided values but every consumer integrates
    against fields that vanish there. The radial case returns d/dr with
    the symmetric zero at r=0.
    """
    h = grid.h
    if grid.geometry == "radial":
        g = np.gradient(field, h)
        g[0] = 0.0  # even profile: phi'(0) = 0
        return [g]
    return [np.gradient(field, h, axis=a) for a in range(grid.dimension)]


def interpolate_radial(radial_grid: Grid, values: np.ndarray, target_radii: np.ndarray) -> np.ndarray:
    """Cubic interpolation of a radial profile onto arbitrary radii.

    Radii beyond the radial extent map to zero (the profile has decayed
    there by construction).
    """
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(radial_grid.axis, values, bc_type=((1, 0.0), (1, 0.0)))
    out = np.where(
        target_radii <= radial_grid.extent, spline(np.clip(target_radii, 0.0, radial_grid.extent)), 0.0
    )
    return out
