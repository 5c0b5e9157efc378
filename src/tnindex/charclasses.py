"""Pontryagin-type curvature densities and their symmetry-reduced radial
integration over the Taub-NUT family."""

from __future__ import annotations

import numpy as np

from . import geometry, jets
from .errors import ConvergenceError
from .geometry import (_EPS4, Gauge, MetricSpec, Variant, _seed_chart,
                       curvature_form_chunks, wedge4)
from .jets import Jet
from .quadrature import GridSet, QuadratureSpec, integrate_radial

PONT_NORM = 1.0 / (192.0 * np.pi**2)


def pontryagin_scalar(riemann: np.ndarray) -> np.ndarray:
    """Coefficient of tr(R ^ R) against the orthonormal volume form for a
    batch of frame Riemann tensors (n, 4, 4, 4, 4), as the Levi-Civita
    contraction (1/4) eps^cdef R_abcd R_baef."""
    return 0.25 * np.einsum("cdef,nabcd,nbaef->n", _EPS4, riemann, riemann)


def _sweep_geometry(grid_set: GridSet):
    """The metric-free half of _density_samples on a grid set: a
    jets.SharedSeed over the r of the _seed_chart of its points in the
    default gauge and its end radii, which hold no point, and that chart.
    Kept on the set (GridSet.derived), so every array is read-only."""
    chart = jets.read_only(*_seed_chart(grid_set.points, Gauge.DEFAULT))
    radius = np.concatenate([chart[0].val, grid_set.ends])
    return jets.SharedSeed(radius), chart


def _density_samples(spec: MetricSpec, grid_set: GridSet):
    """Density on every grid (r, w, directions) of the grid_set, one
    (len(r), directions) array per grid in grid order, and P at its end
    radii, ([P(r_min)], [P(r_max)]).

    With sqrt(det g) = sqrt(A^3 C) the tr(R^R) coefficient against the
    coordinate volume is the trace of the wedge of the coordinate curvature
    2-forms, whatever the basis of their endomorphism indices; times the
    level-set volume 8 pi^2 r^2 and PONT_NORM it is the radial density
    rho(r) whose r-integral is (1/192 pi^2) int tr R^R.

    One radial jet of A and C runs over the radii of every point of the
    set and the ends, from the shared seed of _sweep_geometry, and the
    ends' chern_simons bracket must be finite before any curvature runs,
    else ConvergenceError, with the ends (r, P) as its history; the
    points then go through curvature_form_chunks together, each chunk
    lifting its slice onto its slice of the cached chart jets.  All of it
    is elementwise, so every density and end keeps the bits of a call of
    its own."""
    xyz, grids = grid_set.points, grid_set.grids
    radius, chart = grid_set.derived(_sweep_geometry)
    # read from geometry at call time, as geometry's own callers read it,
    # so that one wrapper there sees every radial pass
    radial = geometry._radial_coeffs(spec, radius)
    n = len(xyz)
    p_ends, _ = _chern_simons_bracket(radius[n:], *(y[n:] for y in radial))
    bad = [f"P({k}) = {p}" for k, p in zip(("r_min", "r_max"), p_ends)
           if not np.isfinite(p)]
    if bad:
        raise ConvergenceError(
            "Chern-Simons end not finite: " + ", ".join(bad),
            [(r, float(p)) for r, p in zip(grid_set.ends, p_ends)])
    # tr(R^R) = sum_ab R_ab ^ R_ba, wedge4 against the transpose; the 16
    # entries are added row by row, since a reduction inside numpy changes
    # its order when a chunk holds a single point
    trace = np.concatenate([
        sum(wedge4(f, f.swapaxes(1, 2)).reshape(16, -1))
        for f in curvature_form_chunks(spec, xyz,
                                       [*(y[:n] for y in radial), *chart])])
    return ([(PONT_NORM * 8.0 * np.pi**2 * r * r)[:, None] * t
             for (r, _, _), t in zip(grids, grid_set.split(trace))],
            tuple([float(p)] for p in p_ends))


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


def density_knots(spec: MetricSpec) -> tuple:
    """The radii where the density is not smooth: r_in and r_out of the
    blend, which is C^2 (quintic) or C^3 (septic) there, for the variants
    whose u = C/A reads it (Homotopy, ExactD).  The density depends on u
    alone; TN has no blend and Conformal's u = 1/v^2 none, so they have no
    knot."""
    if spec.variant in (Variant.HOMOTOPY, Variant.EXACT_D):
        return spec.blend.r_in, spec.blend.r_out
    return ()


def convergence_table(spec: MetricSpec, quad: QuadratureSpec, n_r_values):
    """Rows (n_r, value, error_estimate, tail_bound) for a grid sweep of
    the normalized tr R^R integral: `integrate_radial` on grids cut at the
    `density_knots`, sampled by _density_samples, with the limits 1/12
    and 1/6 and no scale."""
    return integrate_radial(quad, n_r_values, density_knots(spec),
                            lambda grid_set: _density_samples(spec, grid_set),
                            ([1.0 / 12.0], [1.0 / 6.0]), 0.0)


def pontryagin_integral(spec: MetricSpec, quad: QuadratureSpec):
    """(value, error) of the normalized tr R^R integral at quad.n_r, the
    error being error_estimate + tail_bound; see convergence_table."""
    [(_, value, error, tail)] = convergence_table(spec, quad, [quad.n_r])
    return value, error + tail

