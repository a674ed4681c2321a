"""Uniform finite-difference grids with homogeneous Dirichlet boundaries.

Three geometry names, two kinds of grid:

  line    1d interval [-L, L], n nodes, both ends pinned to zero
  box     tensor product of [-L, L] per axis (dimension 2 or 3)
  radial  [0, L] with r = i*h; regularity at r = 0, Dirichlet at r = L;
          used for radially symmetric profiles in dimension >= 2

A line is the one-dimensional box: shapes, weights, gradients and the
Laplacian (a Kronecker sum of the 1d stencil over the axes) take one
tensor-product path for both, and only the radial grid has its own.
Fields of one parity per axis live on the kept nodes of a `fold`, and
`neg_laplacian` restricts to them. Both kinds of one-dimensional grid,
line and radial, also give their -lap as three `bands`, from which the
solvers work without any sparse matrix; box grids assemble the sparse
Kronecker sum of the same axis bands. Fields are stored on the full
node set with boundary entries kept at zero; linear operators act on
the interior unknowns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gamma, pi

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
        if not (self.extent > 0):
            raise SchemaError("/grid/extent", "extent must be positive")

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


def _axis_fold(m: int, parity: int):
    """Extension from the kept nodes of an axis with m interior nodes to all.

    Parity 0 keeps every node. Even (+1) and odd (-1) fields keep the
    nodes at and right of the axis centre, less a centre node for odd
    fields (they vanish there); a kept node's column holds 1 at the node
    and `parity` at its mirror image.
    """
    if parity == 0:
        return sp.eye_array(m, format="csr")
    kept, mirror, sign = _mirror(m, parity)
    cols = np.arange(kept.size)
    # duplicate entries add up: an even centre node is its own mirror
    vals = np.concatenate([np.ones(kept.size), sign])
    rows = np.concatenate([kept, mirror])
    return sp.csr_array((vals, (rows, np.concatenate([cols, cols]))), shape=(m, kept.size))


def _mirror(m: int, parity: int):
    """(kept, mirror, sign) of an axis fold: a folded axis keeps its right
    half, a centre node only if even; `sign` is `parity`, but 0 at a node
    that is its own mirror."""
    kept = np.arange(m // 2 + (m % 2) * (parity < 0), m)
    mirror = m - 1 - kept
    return kept, mirror, parity * (mirror != kept)


def fold(grid: Grid, parity) -> sp.csr_array:
    """Extension E from the kept nodes of `parity` to the interior nodes.

    `parity` holds one of 0 (all nodes), +1 (even) or -1 (odd about the
    centre) per axis; E is the tensor product of the axis folds, and
    E^T E the diagonal of the kept nodes' multiplicities.
    """
    return reduce(sp.kron, [_axis_fold(grid.n - 2, s) for s in parity]).tocsr()


def fold_maps(grid: Grid, parity):
    """(restrict, extend): v -> E^T v and u -> E u for the `fold` E.

    A line folds by indexing, with no sparse matrix; a radial grid, whose
    parity is None, does not fold, and both maps are the identity.
    """
    if grid.geometry == "box":
        e = fold(grid, parity)
        return e.T.__matmul__, e.__matmul__
    if not parity or not parity[0]:
        return (lambda v: v), (lambda u: u)
    kept, mirror, sign = _mirror(grid.n - 2, parity[0])

    def extend(u):
        out = np.zeros(grid.n - 2, dtype=u.dtype)
        out[kept] = u
        out[mirror] += sign * u
        return out

    return (lambda v: v[kept] + sign * v[mirror]), extend


def bands(grid: Grid, parity=None):
    """-lap on a line or radial grid as its bands (lower, main, upper, mass).

    On a line, the bands of `neg_laplacian(grid, parity)` and the
    diagonal `mass` of the fold's multiplicities; the radial stencil is
    not symmetric, and its mass is 1.
    """
    if grid.geometry != "radial":
        main, off, mass = _axis_bands(grid.n - 2, grid.h, parity[0] if parity else 0)
        return off, main, off, mass
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
    return lower, main, up, np.ones(m)


def neg_laplacian(grid: Grid, parity=None):
    """-Laplace operator on interior unknowns, CSR matrix.

    Second-order centered stencil. The radial operator carries the
    (dim-1)/r first-order term and the r=0 row uses the regularized
    limit  lap u(0) = dim * u''(0)  for even profiles.

    On line and box grids, E^T (-lap) E for the fold E of `parity` (the
    default, all 0, is -lap): the multiplicities times the stencil with a
    mirror ghost node (even) or a Dirichlet plane (odd) at the centre,
    symmetric. An odd n puts a node on the plane, an even n two nodes
    astride it. Both are assembled from the bands that `bands` returns.
    """
    if grid.geometry == "radial":
        lower, main, upper, _ = bands(grid)
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
