"""Pontryagin-type curvature densities and their symmetry-reduced radial
integration over the Taub-NUT family."""

from __future__ import annotations

import numpy as np

from . import jets
from .errors import ConvergenceError
from .geometry import (_EPS4, MetricSpec, _radial_coeffs,
                       curvature_form_chunks, wedge4)
from .jets import Jet
from .quadrature import (ROUNDOFF, QuadratureSpec, angular_points,
                         integrate_radial, isotropic_mean, radial_nodes)

PONT_NORM = 1.0 / (192.0 * np.pi**2)


def pontryagin_scalar(riemann: np.ndarray) -> np.ndarray:
    """Coefficient of tr(R ^ R) against the orthonormal volume form for a
    batch of frame Riemann tensors (n, 4, 4, 4, 4), as the Levi-Civita
    contraction (1/4) eps^cdef R_abcd R_baef."""
    return 0.25 * np.einsum("cdef,nabcd,nbaef->n", _EPS4, riemann, riemann)


_CHUNK = 352  # points per curvature batch, to bound the working set


def _density_samples(spec: MetricSpec, rs: np.ndarray, n_ang: int):
    """Density at each radius for each angular check sample, shape
    (len(rs), n_ang).

    With sqrt(det g) = sqrt(A^3 C) the tr(R^R) coefficient against the
    coordinate volume is the trace of the wedge of the coordinate curvature
    2-forms, whatever the basis of their endomorphism indices; times the
    level-set volume 8 pi^2 r^2 and PONT_NORM it is the radial density
    rho(r) whose r-integral is (1/192 pi^2) int tr R^R."""
    rs = np.asarray(rs, dtype=float)
    xyz = angular_points(rs, n_ang).reshape(-1, 3)
    # tr(R^R) = sum_ab R_ab ^ R_ba, wedge4 against the transpose; the 16
    # entries are added row by row, since a reduction inside numpy changes
    # its order when a chunk holds a single point
    trace = np.concatenate([
        sum(wedge4(f, f.swapaxes(1, 2)).reshape(16, -1))
        for f in curvature_form_chunks(spec, xyz, _CHUNK)])
    scale = PONT_NORM * 8.0 * np.pi**2 * rs * rs
    return scale[:, None] * trace.reshape(rs.size, n_ang)


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
    a_coeff, c_coeff = _radial_coeffs(spec, radius)
    u = c_coeff / a_coeff
    unused = np.zeros_like(u.hess)  # P'' would need the third derivative
    u, du = Jet(u.val, u.grad, unused), Jet(u.grad[0], u.hess[0], unused)
    p = 1.0 / 6.0 + (2.0 * du * du / u - 8.0 * du / radius
                     + u * u / (radius * radius * radius * radius)) / 192.0
    return p.val, p.grad[0]


def convergence_table(spec: MetricSpec, quad: QuadratureSpec, n_r_values):
    """Rows (n_r, value, error_estimate, tail_bound) for a grid sweep of
    the normalized tr R^R integral: the quadrature over [r_min, r_max],
    with its fine/coarse difference as the error, plus the exact ends
    P(r_min) - 1/12 and 1/6 - P(r_max) of `chern_simons`; the tail bound
    bounds the roundoff of the ends and of the sum.  A non-finite end
    raises ConvergenceError, with the ends (r, P) as its history.

    The density depends on r alone, so every grid is sampled at one
    direction, the first of `angular_samples`.  The isotropy check runs
    once, at quad.n_ang directions on the coarsest grid of the sweep (the
    half-size grid of its smallest n_r), whose first direction is its
    value; that grid's sum |w spread| joins every tail bound, as the cost of
    one direction.  Each distinct radial grid is sampled once: a fine grid
    of one row is often the coarse grid of the next.  A point's curvature
    does not depend on the rest of its batch, so reusing a grid changes no
    bit."""
    (p_min, p_max), _ = chern_simons(spec, [quad.r_min, quad.r_max])
    ends = {"r_min": float(p_min), "r_max": float(p_max)}
    bad = [f"P({k}) = {p}" for k, p in ends.items() if not np.isfinite(p)]
    if bad:
        raise ConvergenceError("Chern-Simons end not finite: " + ", ".join(
            bad), [(getattr(quad, k), p) for k, p in ends.items()])
    head, tail = ends["r_min"] - 1.0 / 12.0, 1.0 / 6.0 - ends["r_max"]
    r_check, w_check = radial_nodes(quad, min(n_r_values) // 2)
    checked = _density_samples(spec, r_check, quad.n_ang)
    mean = isotropic_mean(checked, quad.tol)
    direction = float(np.abs(checked - mean[:, None]).max(axis=1) @ w_check)
    # contiguous: np.dot sums a strided column in another order
    sampled = {r_check.tobytes(): np.ascontiguousarray(checked[:, 0])}

    def samples(rs):
        key = rs.tobytes()
        if key not in sampled:
            sampled[key] = _density_samples(spec, rs, 1)[:, 0]
        return sampled[key]

    rows = []
    for n in n_r_values:
        middle, error = integrate_radial(samples, quad, n)
        rs, ws = radial_nodes(quad, n)
        mass = float(np.abs(samples(rs)) @ ws)  # sum |w rho|
        rows.append((n, middle + head + tail, error, direction
                     + ROUNDOFF * (mass + abs(p_min) + abs(p_max))))
    return rows


def pontryagin_integral(spec: MetricSpec, quad: QuadratureSpec):
    """(value, error) of the normalized tr R^R integral at quad.n_r, the
    error being error_estimate + tail_bound; see convergence_table."""
    [(_, value, error, tail)] = convergence_table(spec, quad, [quad.n_r])
    return value, error + tail

