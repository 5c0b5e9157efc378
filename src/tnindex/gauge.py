"""Diagonal model instanton connections on Taub-NUT: field strengths,
(anti-)self-duality diagnostics, the bulk action, and boundary data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenericityError
from .geometry import (PAIRS, Gauge, MetricSpec, Point, Variant,
                       chart_omega, hodge_star, metric_at, two_form_matrix,
                       wedge4)
from .quadrature import GridSet, QuadratureSpec, integrate_radial

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
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        if not math.isfinite(self.mcharge):
            raise ValueError(f"mcharge must be finite, got {self.mcharge!r}")
        if not float(self.chern).is_integer():
            raise ValueError(
                f"chern must be an exact integer, got {self.chern!r}")
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
            raise ValueError("channels must hold at least one channel")
        if len(set(lams)) != len(lams):
            raise ValueError("channels must have pairwise distinct lam")

    @property
    def rank(self) -> int:
        return len(self.channels)


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
    c = float(_radial_coefficients(ch.lam, ch.mcharge, l, r)[1])
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
    omega) and d(omega) = star3 dV (None where it vanishes), and the radii
    r."""
    r, omega = chart_omega(xyz, gauge)
    x = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    dr, fib = [*(x / r), 0.0], [*np.moveaxis(omega, -1, 0), 1.0]
    grad_v = (-0.5 / r**2) * x / r
    return (tuple(dr[i] * fib[j] - fib[i] * dr[j] for i, j in PAIRS),
            (grad_v[2], -grad_v[1], None, grad_v[0], None, None), r)


def _radial_coefficients(lam, mcharge, l: float, r):
    """(c', c) of channels (lam, mcharge), numbers or arrays that broadcast
    against the radii r: c = num / v with v = l + 1/(2r) and num = l lam +
    mcharge/(2r), and c' = (num' v - num v') / v^2."""
    v = l + 0.5 / r
    num = l * lam + mcharge / (2.0 * r)
    dnum = -mcharge / (2.0 * r**2)
    dv = -0.5 / r**2
    return (dnum * v - num * dv) / v**2, num / v


def field_strength_array(ch: InstantonChannel, xyz,
                         gauge: Gauge = Gauge.DEFAULT,
                         l: float = 1.0) -> np.ndarray:
    """Closed-form G with F = dA = -i G at the points xyz of shape (..., 3),
    on PAIRS, shape (6, ...): G = c'(r) dr ^ (dtau + omega) + (c(r) - mcharge)
    d(omega) with d(omega) = star3 dV; the mcharge shift comes from the
    monopole term of the connection.  c' and c come from
    _radial_coefficients, with v = l + 1/(2r)."""
    fibered, domega, r = _field_strength_geometry(xyz, gauge)
    dc, c = _radial_coefficients(ch.lam, ch.mcharge, l, r)
    c_eff = c - ch.mcharge
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


def _bulk_geometry(grid_set: GridSet):
    """The channel-free part of the bulk density on a grid set.  Returns
    the wedges f^f, 2 f^w and w^w of f = dr ^ (dtau + omega) and w =
    d(omega) at every point, shape (3, points); then, at every node radius
    in grid order followed by the end radii, which hold no point, the
    radius and the number of points.  Kept on the set (GridSet.derived),
    so every array is read-only."""
    grids, ends, points = grid_set.grids, grid_set.ends, grid_set.points
    fibered, domega, _ = _field_strength_geometry(points)
    domega = [np.zeros(len(points)) if w is None else w for w in domega]
    wedges = np.stack([wedge4(fibered, fibered),
                       2.0 * wedge4(fibered, domega), wedge4(domega, domega)])
    r = np.concatenate([*(rs for rs, _, _ in grids), ends])
    directions = np.repeat([k for _, _, k in grids] + [0],
                           [len(rs) for rs, _, _ in grids] + [len(ends)])
    for a in (wedges, r, directions):
        a.flags.writeable = False
    return wedges, r, directions


def _bulk_densities(data: InstantonData, grid_set: GridSet, l: float):
    """-(1/8 pi^2) tr F^F reduced to a per-unit-r density on every grid
    (r, w, directions) of the grid_set, one (len(r), directions) array per
    grid in grid order, and each channel's F = -(c - mcharge)^2 / 2 at its
    end radii, one list per end, from one pass over the radii of both.

    Channel by channel tr F^F = -G^G for u(1) blocks, and G = c' f +
    (c - mcharge) w makes G^G the quadratic form c'^2 f^f + 2 c' (c -
    mcharge) f^w + (c - mcharge)^2 w^w.  c and c' depend on r alone, so
    the form's three coefficients are summed over the channels once per
    radius and then meet the wedges that _bulk_geometry caches per point.
    f^f and w^w vanish in exact arithmetic; they are the wedges of the
    actual forms, so the numeric route never assumes it."""
    wedges, r, directions = grid_set.derived(_bulk_geometry)
    lam, mcharge = np.array([ch.lam for ch in data.channels]
                            + [ch.mcharge for ch in data.channels]
                            ).reshape(2, -1, 1)
    dc, c = _radial_coefficients(lam, mcharge, l, r)
    c_eff = c - mcharge
    # -(1/8 pi^2) * (-sum G^G) * (level-set volume 8 pi^2 r^2); an end
    # repeats to no point
    form = np.add.reduce([dc * dc, dc * c_eff, c_eff * c_eff], axis=1) \
        * (r * r)
    density = np.add.reduce(np.repeat(form, directions, axis=1) * wedges)
    c_ends = c_eff[:, len(r) - len(grid_set.ends):].T
    return grid_set.split(density), (-0.5 * (c_ends * c_ends)).tolist()


def bulk_action(data: InstantonData, quad: QuadratureSpec, l: float = 1.0):
    """-(1/8 pi^2) int_TN tr F^F as (value, error_estimate + tail_bound)
    of `integrate_radial` at quad.n_r: each channel's F = -(c - mcharge)^2
    / 2 has the limits 0 and -(lam - mcharge)^2 / 2, as c(0) = mcharge and
    c(infinity) = lam, and the scale is sum (lam^2 + mcharge^2), all formed
    from products, since ** raises OverflowError where * gives inf."""
    gaps = [ch.lam - ch.mcharge for ch in data.channels]
    [(_, value, error, tail)] = integrate_radial(
        quad, [quad.n_r], (),
        lambda grid_set: _bulk_densities(data, grid_set, l),
        ([0.0] * data.rank, [-0.5 * (d * d) for d in gaps]),
        sum(ch.lam * ch.lam + ch.mcharge * ch.mcharge
            for ch in data.channels))
    return value, error + tail


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
