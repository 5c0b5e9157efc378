"""Diagonal model instanton connections on Taub-NUT: field strengths,
(anti-)self-duality diagnostics, the bulk action, and boundary data."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GenericityError
from .geometry import (PAIRS, Gauge, MetricSpec, Point, Variant,
                       chart_omega, hodge_star, metric_at, two_form_matrix,
                       wedge4)
from .quadrature import (ROUNDOFF, QuadratureSpec, angular_points,
                         integrate_radial, sweep_grids)

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
        if not (np.isfinite(self.lam) and np.isfinite(self.mcharge)):
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


def _field_strength_geometry(xyz, gauge: Gauge = Gauge.DEFAULT):
    """The channel-free part of G at the points xyz: on PAIRS, dr ^ (dtau +
    omega) and d(omega) = star3 dV (None where it vanishes), and the radial
    factors 1/(2r), 2r, dv/dr = -1/(2r^2) and 2r^2 of v = l + 1/(2r)."""
    r, omega = chart_omega(xyz, gauge)
    x = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    dr, fib = [*(x / r), 0.0], [*np.moveaxis(omega, -1, 0), 1.0]
    dv = -0.5 / r**2
    grad_v = dv * x / r
    return (tuple(dr[i] * fib[j] - fib[i] * dr[j] for i, j in PAIRS),
            (grad_v[2], -grad_v[1], None, grad_v[0], None, None),
            (0.5 / r, 2.0 * r, dv, 2.0 * r**2))


def _channel_field_strength(ch: InstantonChannel, l: float, v, v2,
                            geometry):
    """One channel's G on PAIRS, as a list, from v = l + 1/(2r), its square
    v2 and the _field_strength_geometry of the points: c = num / v with
    num = l lam + mcharge/(2r), c' = (num' v - num v') / v^2, and
    G = c' dr ^ (dtau + omega) + (c - mcharge) d(omega)."""
    fibered, domega, (_, two_r, dv, two_r2) = geometry
    num = l * ch.lam + ch.mcharge / two_r
    dnum = -ch.mcharge / two_r2
    dc = (dnum * v - num * dv) / v2
    c_eff = num / v - ch.mcharge
    return [dc * f if w is None else dc * f + c_eff * w
            for f, w in zip(fibered, domega)]


def field_strength_array(ch: InstantonChannel, xyz,
                         gauge: Gauge = Gauge.DEFAULT,
                         l: float = 1.0) -> np.ndarray:
    """Closed-form G with F = dA = -i G at the points xyz of shape (..., 3),
    on PAIRS, shape (6, ...): G = c'(r) dr ^ (dtau + omega) + (c(r) - mcharge)
    d(omega) with d(omega) = star3 dV; the mcharge shift comes from the
    monopole term of the connection.  The uncached call of the path that
    _bulk_density_samples takes."""
    geometry = _field_strength_geometry(xyz, gauge)
    v = l + geometry[2][0]  # the first radial factor is 1/(2r)
    return np.stack(_channel_field_strength(ch, l, v, v**2, geometry))


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
def _bulk_geometry(radii: bytes, n_ang: int):
    """_field_strength_geometry at angular_points(rs, n_ang), rs =
    np.frombuffer(radii).  Built once per grid and shared, so every array
    is read-only."""
    geometry = _field_strength_geometry(
        angular_points(np.frombuffer(radii), n_ang))
    for a in (*geometry[0], *geometry[1], *geometry[2]):
        if a is not None:
            a.flags.writeable = False
    return geometry


def _bulk_density_samples(data: InstantonData, rs: np.ndarray, n_ang: int,
                          l: float = 1.0):
    """-(1/8 pi^2) tr F^F reduced to a per-unit-r density at angular check
    samples, shape (len(rs), n_ang); the channels share the grid geometry
    of _bulk_geometry and v = l + 1/(2r)."""
    r = np.asarray(rs, dtype=float)[:, None]
    geometry = _bulk_geometry(r.tobytes(), n_ang)
    v = l + geometry[2][0]  # the first radial factor is 1/(2r)
    v2 = v**2
    total = np.zeros(v.shape)
    for ch in data.channels:
        g = _channel_field_strength(ch, l, v, v2, geometry)
        total -= wedge4(g, g)  # tr F^F = -(G^G) channelwise for u(1) blocks
        del g  # one G alive at a time keeps the peak memory down
    # -(1/8 pi^2) * total * (level-set volume 8 pi^2 r^2)
    return -total * r * r


def bulk_action(data: InstantonData, quad: QuadratureSpec, l: float = 1.0):
    """-(1/8 pi^2) int_TN tr F^F as (value, error_estimate): the radial
    quadrature over [r_min, r_max] plus the exact head and tail, since each
    channel's density is d/dr(-(c - mcharge)^2 / 2), with c(0) = mcharge
    and c(infinity) = lam.  The quadrature is the one-row sweep [quad.n_r]
    of `integrate_radial`; the error is its grid refinement difference
    plus its direction term plus a roundoff floor, whose absolute term,
    the smallest normal double, covers subnormal rounding."""
    grids = sweep_grids(quad, [quad.n_r])
    [(_, middle, error, direction, _)] = integrate_radial(
        grids, [_bulk_density_samples(data, r, k, l) for r, _, k in grids],
        quad, [quad.n_r])
    head = tail = 0.0
    for ch in data.channels:
        c_min, c_max = connection_coefficient(
            ch, [quad.r_min, quad.r_max], l) - ch.mcharge
        head -= 0.5 * c_min**2
        tail -= 0.5 * ((ch.lam - ch.mcharge) ** 2 - c_max**2)
    floor = ROUNDOFF * sum(ch.lam**2 + ch.mcharge**2 for ch in data.channels) \
        + np.finfo(float).tiny
    return middle + float(head) + float(tail), error + direction + floor


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
