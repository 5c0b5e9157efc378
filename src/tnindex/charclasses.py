"""Pontryagin-type curvature densities and their symmetry-reduced radial
integration over the Taub-NUT family."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import geometry, jets
from .errors import ConvergenceError
from .geometry import (_EPS4, Gauge, MetricSpec, _point_radii, _seed_chart,
                       curvature_form_chunks, wedge4)
from .jets import Jet
from .quadrature import (ROUNDOFF, QuadratureSpec, grid_points,
                         grid_set_key, integrate_radial, key_grids, per_grid,
                         sweep_grids)

PONT_NORM = 1.0 / (192.0 * np.pi**2)


def pontryagin_scalar(riemann: np.ndarray) -> np.ndarray:
    """Coefficient of tr(R ^ R) against the orthonormal volume form for a
    batch of frame Riemann tensors (n, 4, 4, 4, 4), as the Levi-Civita
    contraction (1/4) eps^cdef R_abcd R_baef."""
    return 0.25 * np.einsum("cdef,nabcd,nbaef->n", _EPS4, riemann, riemann)


_CHUNK = 352  # points per curvature batch, to bound the working set


@lru_cache(maxsize=4)
def _sweep_geometry(grid_set: tuple, ends: tuple):
    """The metric-free half of _density_samples on a grid set, a
    `grid_set_key` whose points are `grid_points`: the points, a
    jets.SharedSeed over their radii followed by the radii ends, which hold
    no point, and the _chart_jets of the points in the default gauge.
    Built once per grid set and shared, so every array is read-only."""
    xyz = grid_points(key_grids(grid_set))
    xyz.flags.writeable = False
    radius = jets.SharedSeed(np.concatenate([_point_radii(xyz), ends]))
    return xyz, radius, jets.read_only(*_seed_chart(xyz, Gauge.DEFAULT))


def _density_samples(spec: MetricSpec, grids, ends):
    """Density on every grid (r, w, directions) of grids, one (len(r),
    directions) array per grid in grid order, and P at the radii ends,
    (P(r_min), P(r_max)) or ().

    With sqrt(det g) = sqrt(A^3 C) the tr(R^R) coefficient against the
    coordinate volume is the trace of the wedge of the coordinate curvature
    2-forms, whatever the basis of their endomorphism indices; times the
    level-set volume 8 pi^2 r^2 and PONT_NORM it is the radial density
    rho(r) whose r-integral is (1/192 pi^2) int tr R^R.

    One radial jet of A and C runs over the radii of every point of
    `grid_points` and the ends, from the shared seed of _sweep_geometry,
    and the ends' chern_simons bracket must be finite before any curvature
    runs, else ConvergenceError, with the ends (r, P) as its history; the
    points then go through curvature_form_chunks together, each chunk
    lifting its slice onto its slice of the cached chart jets.  All of it
    is elementwise, so every density and end keeps the bits of a call of
    its own."""
    xyz, radius, chart = _sweep_geometry(grid_set_key(grids), tuple(ends))
    # read from geometry at call time, as geometry's own callers read it,
    # so that one wrapper there sees every radial pass
    radial = geometry._radial_coeffs(spec, radius)
    n, p_ends = len(xyz), ()
    if ends:
        tip = slice(n, None)
        p_ends, _ = _chern_simons_bracket(radius[tip],
                                          *(y[tip] for y in radial))
        bad = [f"P({k}) = {p}" for k, p in zip(("r_min", "r_max"), p_ends)
               if not np.isfinite(p)]
        if bad:
            raise ConvergenceError(
                "Chern-Simons end not finite: " + ", ".join(bad),
                [(r, float(p)) for r, p in zip(ends, p_ends)])
    # tr(R^R) = sum_ab R_ab ^ R_ba, wedge4 against the transpose; the 16
    # entries are added row by row, since a reduction inside numpy changes
    # its order when a chunk holds a single point
    trace = np.concatenate([
        sum(wedge4(f, f.swapaxes(1, 2)).reshape(16, -1))
        for f in curvature_form_chunks(spec, xyz, _CHUNK,
                                       [*(y[:n] for y in radial), *chart])])
    return ([(PONT_NORM * 8.0 * np.pi**2 * r * r)[:, None] * t
             for (r, _, _), t in zip(grids, per_grid(trace, grids))],
            tuple(float(p) for p in p_ends))


def _chern_simons_bracket(radius, a_coeff, c_coeff):
    """(P, P') of chern_simons from the jets of A and C on the one-variable
    jet radius."""
    u = c_coeff / a_coeff
    unused = np.zeros_like(u.hess)  # P'' would need the third derivative
    u, du = Jet(u.val, u.grad, unused), Jet(u.grad[0], u.hess[0], unused)
    p = 1.0 / 6.0 + (2.0 * du * du / u - 8.0 * du / radius
                     + u * u / (radius * radius * radius * radius)) / 192.0
    return p.val, p.grad[0]


def chern_simons(spec: MetricSpec, r):
    """(P, P') at the radii r: P is PONT_NORM times the level-set integral
    of the Chern-Simons form of the Levi-Civita connection (Chern & Simons,
    Ann. Math. 99, 1974), so P' is the density of _density_samples.  In the
    frame e0 = sqrt(A) dr, e1,2 = r sqrt(A) sigma1,2, e3 = sqrt(C) sigma3/2
    (psi = 2 tau; Eguchi, Gilkey & Hanson, Phys. Rep. 66, 1980), u = C/A,

        P = 1/6 + [2C'^2/(AC) - 4A'C'/A^2 + 2CA'^2/A^3 - 8C'/(rA)
                   + 8CA'/(rA^2) + C^2/(r^4 A^2)] / 192
          = 1/6 + [2u'^2/u - 8u'/r + u^2/r^4] / 192.

    Every variant is Taub-NUT near the nut, u = 4r^2 + O(r^3), so
    P(0+) = 1/12; u' = O(r^-2) at infinity, so P(infinity) = 1/6.  The
    bracket runs on jets of u and u', so P' comes with P."""
    radius = jets.seed(np.asarray(r, dtype=float))
    return _chern_simons_bracket(radius,
                                 *geometry._radial_coeffs(spec, radius))


def convergence_table(spec: MetricSpec, quad: QuadratureSpec, n_r_values):
    """Rows (n_r, value, error_estimate, tail_bound) for a grid sweep of
    the normalized tr R^R integral: the quadrature over [r_min, r_max] of
    `integrate_radial`, with its fine/coarse difference as the error, plus
    the exact ends P(r_min) - 1/12 and 1/6 - P(r_max) of `chern_simons`;
    the tail bound is the direction term of `integrate_radial` plus the
    roundoff of the ends and of the sum.  A non-finite end raises
    ConvergenceError, with the ends (r, P) as its history, before any
    curvature runs.

    One _density_samples call samples every grid of `sweep_grids` and the
    ends.  A point's curvature does not depend on the rest of its batch,
    so sharing a batch changes no bit."""
    grids = sweep_grids(quad, n_r_values)
    densities, (p_min, p_max) = _density_samples(
        spec, grids, (quad.r_min, quad.r_max))
    head, tail = p_min - 1.0 / 12.0, 1.0 / 6.0 - p_max
    return [(n, middle + head + tail, error, direction
             + ROUNDOFF * (mass + abs(p_min) + abs(p_max)))
            for n, middle, error, direction, mass
            in integrate_radial(grids, densities, quad, n_r_values)]


def pontryagin_integral(spec: MetricSpec, quad: QuadratureSpec):
    """(value, error) of the normalized tr R^R integral at quad.n_r, the
    error being error_estimate + tail_bound; see convergence_table."""
    [(_, value, error, tail)] = convergence_table(spec, quad, [quad.n_r])
    return value, error + tail

