"""Diagonal model instanton connections on Taub-NUT: field strengths,
(anti-)self-duality diagnostics, the bulk action, and boundary data."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GenericityError
from .geometry import (PAIRS, Gauge, MetricSpec, Point, Variant,
                       chart_omega, hodge_star, metric_at, two_form_matrix,
                       wedge4)
from .quadrature import (ROUNDOFF, QuadratureSpec, grid_points,
                         grid_set_key, integrate_radial, key_grids, per_grid,
                         sweep_grids)

LAMBDA_TOL = 1e-6


def dist_to_integers(x: float) -> float:
    return abs(x - round(x))


def require_generic(lam: float):
    """Raise GenericityError when lam lies within LAMBDA_TOL of an integer,
    where the boundary family is not invertible."""
    if dist_to_integers(lam) < LAMBDA_TOL:
        raise GenericityError(
            f"holonomy parameter {lam} is within {LAMBDA_TOL} of an "
            "integer; the boundary family is not invertible")


def frac_part(x: float) -> float:
    """Fractional part taken in (0, 1); integers are rejected upstream."""
    return x - np.floor(x)


@dataclass(frozen=True)
class InstantonChannel:
    """One diagonal channel: holonomy eigenvalue, 1/(2r) decay coefficient,
    and the boundary line-bundle degree (1/2 pi i) oint F^W."""

    lam: float
    mcharge: float
    chern: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.mcharge)):
            raise ValueError(
                f"channel lam and mcharge must be finite, got lam="
                f"{self.lam!r}, mcharge={self.mcharge!r}")
        if not float(self.chern).is_integer():
            raise ValueError(
                f"chern number must be an exact integer, got {self.chern!r}")
        object.__setattr__(self, "chern", int(self.chern))

    def check_generic(self):
        require_generic(self.lam)


@dataclass(frozen=True)
class InstantonData:
    channels: tuple

    def __init__(self, channels):
        object.__setattr__(self, "channels", tuple(channels))
        lams = [ch.lam for ch in self.channels]
        if len(self.channels) < 1:
            raise ValueError("need at least one channel")
        if len(set(lams)) != len(lams):
            raise ValueError("holonomy eigenvalues must be pairwise distinct")

    @property
    def rank(self) -> int:
        return len(self.channels)

    def concat(self, other: "InstantonData") -> "InstantonData":
        return InstantonData(self.channels + other.channels)


def connection_coefficient(ch: InstantonChannel, r, l: float = 1.0):
    """c(r) = (l lam + mcharge/(2r)) / V with model connection a = -i c(r)
    (dtau + omega): the ratio of two harmonic functions, with c(0) = mcharge
    and holonomy c(infinity) = lam for every l."""
    r = np.asarray(r, dtype=float)
    return (l * ch.lam + ch.mcharge / (2.0 * r)) / (l + 0.5 / r)


def model_connection_at(ch: InstantonChannel, p: Point,
                        gauge: Gauge = Gauge.DEFAULT,
                        l: float = 1.0) -> np.ndarray:
    """Real coefficient 1-form a with connection A = -i a, components in
    the (dx1, dx2, dx3, dtau) chart.

    The channel carries the fiber term (l lam + mcharge/(2r)) (dtau + omega)
    / V and the horizontal line-bundle term -mcharge * omega; the
    combination is exactly (anti-)self-dual, and the induced boundary
    bundle degree is -mcharge under this package's flux convention."""
    r, omega = chart_omega(p.xyz(), gauge)
    c = float(connection_coefficient(ch, r, l))
    out = c * np.append(omega, 1.0)
    out[:3] -= ch.mcharge * omega
    return out


@dataclass
class FieldStrengthSample:
    """F = -i * coeff at a point, with duality defects measured against the
    Taub-NUT Hodge star."""

    coeff: np.ndarray   # antisymmetric (4, 4), real
    asd_defect: float   # ||F + *F|| (Frobenius, frame components)
    sd_defect: float    # ||F - *F||
    norm: float

    @property
    def duality_type(self) -> str:
        return "anti-self-dual" if self.asd_defect <= self.sd_defect \
            else "self-dual"


def _radial_factors(r):
    """The factors 1/(2r), 2r, dv/dr = -1/(2r^2) and 2r^2 of v = l + 1/(2r)
    at the radii r."""
    return 0.5 / r, 2.0 * r, -0.5 / r**2, 2.0 * r**2


def _field_strength_geometry(xyz, gauge: Gauge = Gauge.DEFAULT):
    """The channel-free part of G at the points xyz: on PAIRS, dr ^ (dtau +
    omega) and d(omega) = star3 dV (None where it vanishes), and the
    _radial_factors."""
    r, omega = chart_omega(xyz, gauge)
    x = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    dr, fib = [*(x / r), 0.0], [*np.moveaxis(omega, -1, 0), 1.0]
    factors = _radial_factors(r)
    grad_v = factors[2] * x / r
    return (tuple(dr[i] * fib[j] - fib[i] * dr[j] for i, j in PAIRS),
            (grad_v[2], -grad_v[1], None, grad_v[0], None, None), factors)


def _radial_coefficients(lam, mcharge, l: float, v, v2, factors):
    """(c', c - mcharge) of channels (lam, mcharge), numbers or arrays that
    broadcast against the radii, from v = l + 1/(2r), its square v2 and
    the _radial_factors: c = num / v with num = l lam + mcharge/(2r), and
    c' = (num' v - num v') / v^2."""
    _, two_r, dv, two_r2 = factors
    num = l * lam + mcharge / two_r
    dnum = -mcharge / two_r2
    return (dnum * v - num * dv) / v2, num / v - mcharge


def field_strength_array(ch: InstantonChannel, xyz,
                         gauge: Gauge = Gauge.DEFAULT,
                         l: float = 1.0) -> np.ndarray:
    """Closed-form G with F = dA = -i G at the points xyz of shape (..., 3),
    on PAIRS, shape (6, ...): G = c'(r) dr ^ (dtau + omega) + (c(r) - mcharge)
    d(omega) with d(omega) = star3 dV; the mcharge shift comes from the
    monopole term of the connection.  c' and c - mcharge come from
    _radial_coefficients, with v = l + 1/(2r)."""
    fibered, domega, factors = _field_strength_geometry(xyz, gauge)
    v = l + factors[0]  # the first radial factor is 1/(2r)
    dc, c_eff = _radial_coefficients(ch.lam, ch.mcharge, l, v, v**2, factors)
    return np.stack([dc * f if w is None else dc * f + c_eff * w
                     for f, w in zip(fibered, domega)])


def field_strength_coeff(ch: InstantonChannel, p: Point,
                         gauge: Gauge = Gauge.DEFAULT,
                         l: float = 1.0) -> np.ndarray:
    """G with F = dA = -i G at one point as an antisymmetric (4, 4) matrix;
    see field_strength_array."""
    return two_form_matrix(field_strength_array(ch, p.xyz(), gauge, l))


def field_strength_at(ch: InstantonChannel, p: Point,
                      gauge: Gauge = Gauge.DEFAULT,
                      l: float = 1.0) -> FieldStrengthSample:
    """Field strength of the model channel plus duality defects w.r.t. the
    original Taub-NUT metric."""
    coeff = field_strength_coeff(ch, p, gauge, l)
    sample = metric_at(MetricSpec(variant=Variant.TN, l=l), p, gauge)
    star = hodge_star(sample, coeff)
    frame = sample.frame
    to_frame = lambda f: frame.T @ f @ frame
    f_f, s_f = to_frame(coeff), to_frame(star)
    return FieldStrengthSample(
        coeff=coeff,
        asd_defect=float(np.linalg.norm(f_f + s_f)),
        sd_defect=float(np.linalg.norm(f_f - s_f)),
        norm=float(np.linalg.norm(f_f)),
    )


# ---------------------------------------------------------------------------
# Bulk action


@lru_cache(maxsize=4)
def _bulk_geometry(grid_set: tuple, ends: tuple):
    """The channel-free part of the bulk density on a grid set, a
    `grid_set_key` whose points are `grid_points`.  Returns the wedges f^f,
    2 f^w and w^w of f = dr ^ (dtau + omega) and w = d(omega) at every
    point, shape (3, points); then, at every node radius in grid order
    followed by the radii ends, which hold no point, the _radial_factors,
    r^2 and the number of points.  Built once per grid set and shared, so
    every array is read-only."""
    grids = key_grids(grid_set)
    points = grid_points(grids)
    fibered, domega, _ = _field_strength_geometry(points)
    domega = [np.zeros(len(points)) if w is None else w for w in domega]
    wedges = np.stack([wedge4(fibered, fibered),
                       2.0 * wedge4(fibered, domega), wedge4(domega, domega)])
    r = np.concatenate([*(rs for rs, _, _ in grids), ends])
    factors, r2 = _radial_factors(r), r * r
    directions = np.repeat([k for _, k in grid_set] + [0],
                           [len(rs) for rs, _, _ in grids] + [len(ends)])
    for a in (wedges, *factors, r2, directions):
        a.flags.writeable = False
    return wedges, factors, r2, directions


def _bulk_densities(data: InstantonData, grids, ends, l: float = 1.0):
    """-(1/8 pi^2) tr F^F reduced to a per-unit-r density on every grid
    (r, w, directions) of grids, one (len(r), directions) array per grid in
    grid order (`per_grid`), and c - mcharge at the radii ends, shape
    (len(ends), rank), from one pass over the radii of both.

    Channel by channel tr F^F = -G^G for u(1) blocks, and G = c' f +
    (c - mcharge) w makes G^G the quadratic form c'^2 f^f + 2 c' (c -
    mcharge) f^w + (c - mcharge)^2 w^w.  c and c' depend on r alone, so
    the form's three coefficients are summed over the channels once per
    radius and then meet the wedges that _bulk_geometry caches per point.
    f^f and w^w vanish in exact arithmetic; they are the wedges of the
    actual forms, so the numeric route never assumes it."""
    wedges, factors, r2, directions = _bulk_geometry(grid_set_key(grids),
                                                     tuple(ends))
    v = l + factors[0]  # the first radial factor is 1/(2r)
    lam, mcharge = np.array([ch.lam for ch in data.channels]
                            + [ch.mcharge for ch in data.channels]
                            ).reshape(2, -1, 1)
    dc, c_eff = _radial_coefficients(lam, mcharge, l, v, v**2, factors)
    # -(1/8 pi^2) * (-sum G^G) * (level-set volume 8 pi^2 r^2); an end
    # repeats to no point
    form = np.add.reduce([dc * dc, dc * c_eff, c_eff * c_eff], axis=1) * r2
    density = np.add.reduce(np.repeat(form, directions, axis=1) * wedges)
    return per_grid(density, grids), c_eff[:, len(r2) - len(ends):].T


def bulk_action(data: InstantonData, quad: QuadratureSpec, l: float = 1.0):
    """-(1/8 pi^2) int_TN tr F^F as (value, error_estimate): the radial
    quadrature over [r_min, r_max] plus the exact head and tail, since each
    channel's density is d/dr(-(c - mcharge)^2 / 2), with c(0) = mcharge
    and c(infinity) = lam.  The quadrature is the one-row sweep [quad.n_r]
    of `integrate_radial`, on the density of both its grids from one
    _bulk_densities pass, which also gives c - mcharge at r_min and r_max
    for the head and tail; the error is the grid refinement difference
    plus the direction term plus a roundoff floor, whose absolute term,
    the smallest normal double, covers subnormal rounding."""
    grids = sweep_grids(quad, [quad.n_r])
    densities, (c_min, c_max) = _bulk_densities(
        data, grids, (quad.r_min, quad.r_max), l)
    [(_, middle, error, direction, _)] = integrate_radial(
        grids, densities, quad, [quad.n_r])
    head = tail = 0.0
    for ch, lo, hi in zip(data.channels, c_min.tolist(), c_max.tolist()):
        head -= 0.5 * (lo * lo)
        tail -= 0.5 * ((ch.lam - ch.mcharge) ** 2 - hi * hi)
    floor = ROUNDOFF * sum(ch.lam**2 + ch.mcharge**2 for ch in data.channels) \
        + sys.float_info.min
    return middle + head + tail, error + direction + floor


def bulk_action_closed_form(data: InstantonData) -> float:
    """Exact model bulk action from the radial antiderivative of the
    density: -(lam_j - m_j)^2 / 2 per channel."""
    return sum(-0.5 * (ch.lam - ch.mcharge) ** 2 for ch in data.channels)


def boundary_data(data: InstantonData):
    """(lambdas reduced to (0,1), chern numbers, spectral gap delta).

    delta = (1/2) min_j dist(lambda_j, Z); genericity is enforced per
    channel before reduction."""
    for idx, ch in enumerate(data.channels):
        try:
            ch.check_generic()
        except GenericityError as exc:
            raise GenericityError(f"channel {idx}: {exc}") from None
    lambdas = [frac_part(ch.lam) for ch in data.channels]
    cherns = [ch.chern for ch in data.channels]
    delta = 0.5 * min(dist_to_integers(ch.lam) for ch in data.channels)
    return lambdas, cherns, delta
