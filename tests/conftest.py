from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from kgstab import grids
from kgstab.elliptic import continue_profile, resolve_at_omega, solve_limit_ground_state
from kgstab.grids import Grid
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    find_critical_point,
    resolve_potentials,
)
from kgstab.stability import charge_scaled

# Shared benchmark scenario: 1d cubic problem with a single gaussian bump
# in W, omega deep in the stable range.  Reused across the slope and
# spectrum tests so the continuation only runs once per session.


@pytest.fixture(scope="session")
def s1():
    params = ProblemParams(dimension=1, p=3.0, m=1.0, omega=0.9, epsilon=0.05)
    spec_w = PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    pair = resolve_potentials(params, None, spec_w)
    z = find_critical_point(params, pair, (0.0,))
    grid = Grid(1, "line", 64.0, 6401)
    limit = solve_limit_ground_state(z.z0, params.p, grid, method="fd")
    return params, pair, z, grid, limit


@pytest.fixture(scope="session")
def s1_profile(s1):
    params, pair, z, grid, limit = s1
    return continue_profile(limit, params, pair, z, grid=grid)


@pytest.fixture(scope="session")
def free_limit():
    # V = W = 0 with c = 1: the closed-form sech state
    grid = Grid(1, "line", 15.0, 3001)
    return solve_limit_ground_state(1.0, 3.0, grid, method="fd")


def sech_exact(c, y):
    return np.sqrt(2.0 * c) / np.cosh(np.sqrt(c) * y)


def compute_T_lambda(profile):
    """Derivative at lam = 1 of the scaling family
    phi_lam(y) = lam^(-1/(p-1)) phi(y / sqrt(lam)):

        T = -phi/(p-1) - (1/2) y . grad phi

    with the gradient taken by centred differences (`np.gradient`); on a
    radial grid d/dr, whose nodes lie on the first axis, with the even
    profile's zero at r = 0.
    """
    grid = profile.grid
    if grid.geometry == "radial":
        g = [np.gradient(profile.values, grid.h)]
        g[0][0] = 0.0
    else:
        g = [np.gradient(profile.values, grid.h, axis=a) for a in range(grid.dimension)]
    pts = grid.points()
    ydotgrad = sum(pts[..., a] * g[a] for a in range(len(g)))
    return -profile.values / (profile.p - 1.0) - 0.5 * ydotgrad


# References the frequency derivative is held to: difference quotients
# in omega through Newton re-solves of the profile (`resolve_at_omega`,
# warm-started, on the profile's frame).


def fd_R_omega(profile, params, pair, domega):
    """R = d phi / d omega by a central difference of two re-solves."""
    om = params.omega
    plus = resolve_at_omega(profile, replace(params, omega=om + domega), pair)
    minus = resolve_at_omega(profile, replace(params, omega=om - domega), pair)
    return (plus.values - minus.values) / (2.0 * domega)


def richardson_slope(profile, params, pair):
    """(dQ/domega, error) by Richardson-extrapolated differences.

    Four profiles are re-solved at omega +- d and omega +- d/2, with
    d = 1e-3 max(1, |omega|);
    the two central quotients combine to a fourth-order estimate and
    their disagreement prices the error.
    """
    domega = 1e-3 * max(1.0, abs(params.omega))

    def q(om):
        pp = replace(params, omega=om)
        return charge_scaled(resolve_at_omega(profile, pp, pair), pp, pair)

    om = params.omega
    d1 = (q(om + domega) - q(om - domega)) / (2.0 * domega)
    d2 = (q(om + 0.5 * domega) - q(om - 0.5 * domega)) / domega
    scaled = (4.0 * d2 - d1) / 3.0
    err = abs(d2 - d1) / 3.0 + 1e-12 * abs(scaled) + 1e-15
    epsn = params.epsilon**params.dimension
    return epsn * scaled, epsn * err


def kronecker_sum_laplacian(g, parity):
    """E^T (-lap) E as the sparse Kronecker sum of the axis stencils: the
    reference that the banded assembly of `grids.neg_laplacian` matches
    to the bit."""
    stencils, masses = [], []
    for s in parity:
        main, off, mass = grids._axis_bands(g.n - 2, g.h, s)
        stencils.append(sp.diags_array([main, off, off], offsets=[0, 1, -1]))
        masses.append(sp.diags_array(mass))
    axes = range(g.dimension)
    terms = [reduce(sp.kron, [stencils[b] if b == a else masses[b] for b in axes]) for a in axes]
    return sum(terms[1:], terms[0]).tocsr()


def assert_same_sparse(got, want):
    """The same compressed sparse matrix to the bit: format, shape, data,
    indices and indptr."""
    assert (got.format, got.shape) == (want.format, want.shape)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
