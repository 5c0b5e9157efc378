"""Pontryagin-type curvature densities and their symmetry-reduced radial
integration over the Taub-NUT family."""

from __future__ import annotations

import numpy as np

from .geometry import _EPS4, MetricSpec, curvature_form_chunks, wedge4
from .quadrature import (QuadratureSpec, angular_points, exp_tail_bound,
                         integrate_radial, isotropic_mean)

PONT_NORM = 1.0 / (192.0 * np.pi**2)


def pontryagin_scalar(riemann: np.ndarray) -> np.ndarray:
    """Coefficient of tr(R ^ R) against the orthonormal volume form for a
    batch of frame Riemann tensors (n, 4, 4, 4, 4), as the Levi-Civita
    contraction (1/4) eps^cdef R_abcd R_baef."""
    return 0.25 * np.einsum("cdef,nabcd,nbaef->n", _EPS4, riemann, riemann)


_CHUNK = 256  # points per curvature batch, to bound the working set


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


def pontryagin_density(spec: MetricSpec, r: float,
                       quad: QuadratureSpec) -> float:
    """rho(r) with (1/192 pi^2) int tr R^R = int rho(r) dr, by angular
    sampling on the level set r = const with an isotropy assertion."""
    samples = _density_samples(spec, np.array([r]), quad.n_ang)
    return float(isotropic_mean(samples, quad.tol)[0])


def cs_tail_bound(spec: MetricSpec, r_cut: float,
                  quad: QuadratureSpec) -> float:
    """Upper bound on |int_{r > r_cut} rho| from an exponential fit of the
    tail in y = log r (the density decays exponentially in y)."""
    if r_cut <= spec.blend.r_out:
        raise ValueError("tail bound requires r_cut > r_out of the blend")
    return exp_tail_bound(
        lambda rs: _density_samples(spec, rs, quad.n_ang).mean(axis=1),
        r_cut, 1e-300)


def convergence_table(spec: MetricSpec, quad: QuadratureSpec, n_r_values):
    """Rows (n_r, value, error_estimate, tail_bound) for a grid sweep of
    the normalized tr R^R integral truncated at quad.r_max.

    Each distinct radial grid is sampled once: a fine grid of one row is
    often the coarse grid of the next.  A point's curvature does not depend
    on the rest of its batch, so reusing a grid changes no bit."""
    tail = cs_tail_bound(spec, quad.r_max, quad)
    sampled = {}

    def samples(rs):
        key = rs.tobytes()
        if key not in sampled:
            sampled[key] = _density_samples(spec, rs, quad.n_ang)
        return sampled[key]

    rows = []
    for n in n_r_values:
        value, error = integrate_radial(samples, quad, n)
        rows.append((n, value, error, tail))
    return rows


def pontryagin_integral(spec: MetricSpec, quad: QuadratureSpec):
    """(value, error_estimate, tail_bound) of the normalized tr R^R
    integral truncated at quad.r_max."""
    [(_, value, error, tail)] = convergence_table(spec, quad, [quad.n_r])
    return value, error, tail

