"""Taub-NUT metric family, pointwise tensor calculus, and the Hodge star.

All metrics in the family share the cohomogeneity-one form

    g = A(r) (dx1^2 + dx2^2 + dx3^2) + C(r) (dtau + omega)^2

in the Cartesian chart (x1, x2, x3, tau), where omega is a monopole-type
gauge potential with d(omega) = star3 dV.  The radial coefficients A, C
select the variant: the original Taub-NUT metric, its conformal rescaling,
the homotopy family, and the exact-d end point, all blended to agree with
Taub-NUT inside the inner blend radius.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import ChartError, ConsistencyError, DomainError
from .jets import Jet

AXIS_TOL = 1e-8

# Ordered basis of 2-form index pairs used throughout.
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class Variant(str, enum.Enum):
    TN = "TN"
    CONFORMAL = "Conformal"
    HOMOTOPY = "Homotopy"
    EXACT_D = "ExactD"


class Gauge(str, enum.Enum):
    """Monopole gauge chart for omega.

    DEFAULT is (cos(theta)/2) dphi, singular on the whole x3-axis.
    NORTH is regular at theta = 0, SOUTH at theta = pi.
    """

    DEFAULT = "default"
    NORTH = "north"
    SOUTH = "south"


@dataclass(frozen=True)
class Point:
    x1: float
    x2: float
    x3: float
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau) % (2.0 * np.pi))

    @property
    def r(self) -> float:
        return float(np.sqrt(self.x1**2 + self.x2**2 + self.x3**2))

    @property
    def theta(self) -> float:
        return float(np.arccos(np.clip(self.x3 / self.r, -1.0, 1.0)))

    @property
    def phi(self) -> float:
        return float(np.arctan2(self.x2, self.x1))

    @classmethod
    def from_polar(cls, r, theta, phi, tau=0.0) -> "Point":
        st = np.sin(theta)
        return cls(r * st * np.cos(phi), r * st * np.sin(phi),
                   r * np.cos(theta), tau)

    def xyz(self):
        return np.array([self.x1, self.x2, self.x3])


@dataclass(frozen=True)
class BlendProfile:
    """C^2 monotone transition profile on [r_in, r_out]."""

    r_in: float = 2.0
    r_out: float = 4.0
    kind: str = "quintic"  # or "septic" (C^3)

    def __post_init__(self):
        if not (self.r_out > self.r_in > 0):
            raise ValueError("require r_out > r_in > 0")
        if self.kind not in ("quintic", "septic"):
            raise ValueError(f"unknown blend kind {self.kind!r}")

    def __call__(self, r):
        """Evaluate the profile; accepts floats, arrays, or jets."""
        if isinstance(r, Jet):
            s = (r - self.r_in) * (1.0 / (self.r_out - self.r_in))
            if self.kind == "quintic":
                poly = s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
            else:
                poly = (s * s * s * s) * (
                    35.0 + s * (-84.0 + s * (70.0 - 20.0 * s)))
            zero = Jet.constant(0.0, s.val.shape)
            one = Jet.constant(1.0, s.val.shape)
            out = jets.where(s.val <= 0.0, zero, poly)
            return jets.where(s.val >= 1.0, one, out)
        s = np.clip((np.asarray(r, dtype=float) - self.r_in)
                    / (self.r_out - self.r_in), 0.0, 1.0)
        if self.kind == "quintic":
            return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
        return s**4 * (35.0 - 84.0 * s + 70.0 * s**2 - 20.0 * s**3)


@dataclass(frozen=True)
class MetricSpec:
    variant: Variant = Variant.TN
    t: float = 0.0
    blend: BlendProfile = field(default_factory=BlendProfile)
    l: float = 1.0

    def __post_init__(self):
        if self.l <= 0:
            raise ValueError("mass parameter l must be positive")
        if not (0.0 <= self.t <= 1.0):
            raise ValueError("homotopy parameter t must lie in [0, 1]")


@dataclass
class MetricSample:
    """Coordinate metric plus an orthonormal vierbein at one point."""

    g: np.ndarray       # (4, 4) in the (dx1, dx2, dx3, dtau) chart
    frame: np.ndarray   # columns e_a with frame^T g frame = identity
    point: Point

    def orthonormality_residual(self) -> float:
        return float(np.max(np.abs(
            self.frame.T @ self.g @ self.frame - np.eye(4))))


@dataclass
class CurvatureSample:
    """Riemann data in the orthonormal frame."""

    riemann: np.ndarray   # (4,4,4,4), fully lowered frame components
    ricci: np.ndarray     # (4,4)
    metric: MetricSample

    @property
    def two_form(self) -> np.ndarray:
        """Curvature 2-form matrix R^a_b over the antisymmetric pair basis,
        shape (4, 4, 6)."""
        out = np.empty((4, 4, 6))
        for k, (c, d) in enumerate(PAIRS):
            out[:, :, k] = self.riemann[:, :, c, d]
        return out

    def bianchi_residual(self) -> float:
        r = self.riemann
        cyc = r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
        return float(np.max(np.abs(cyc)))


# ---------------------------------------------------------------------------
# Potential and gauge field


def _gauge_factor(r, x3, rho2, gauge: Gauge):
    """h such that omega_i = h * (-x2, x1, 0); singular axis excluded."""
    if gauge is Gauge.DEFAULT:
        return x3 / (2.0 * r * rho2)
    if gauge is Gauge.NORTH:
        return -1.0 / (2.0 * r * (r + x3))
    return 1.0 / (2.0 * r * (r - x3))


def _check_chart(r, x1, x2, x3, gauge: Gauge):
    """Raise unless every point (floats or arrays) has r > 0 and lies off
    the singular axis of the gauge chart."""
    if np.any(r <= 0.0):
        raise DomainError("tensor evaluation requires r > 0")
    if gauge is Gauge.DEFAULT and np.any(np.hypot(x1, x2) < AXIS_TOL * r):
        raise ChartError(
            "point on the x3-axis: use Gauge.NORTH or Gauge.SOUTH")
    if gauge is Gauge.NORTH and np.any(r + x3 < AXIS_TOL * r):
        raise ChartError("south axis point: use Gauge.SOUTH")
    if gauge is Gauge.SOUTH and np.any(r - x3 < AXIS_TOL * r):
        raise ChartError("north axis point: use Gauge.NORTH")


def chart_omega(xyz, gauge: Gauge = Gauge.DEFAULT):
    """Radius and Cartesian omega components, of shapes (...) and (..., 3),
    at the points xyz of shape (..., 3); raises DomainError or ChartError
    unless every point lies in the chart of the gauge."""
    x1, x2, x3 = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    rho2 = x1 * x1 + x2 * x2
    r = np.sqrt(rho2 + x3 * x3)
    _check_chart(r, x1, x2, x3, gauge)
    h = _gauge_factor(r, x3, rho2, gauge)
    return r, np.stack([-x2 * h, x1 * h, np.zeros_like(h)], axis=-1)


def potential_and_omega(p: Point, gauge: Gauge = Gauge.DEFAULT, l: float = 1.0):
    """Harmonic potential V = l + 1/(2r) and a gauge of omega with
    d(omega) = star3 dV, as Cartesian components."""
    r, omega = chart_omega(p.xyz(), gauge)
    return l + 0.5 / r, omega


# ---------------------------------------------------------------------------
# Radial coefficients of the metric family


def _radial_coeffs(spec: MetricSpec, r):
    """(A, C) such that g = A dx^2 + C (dtau + omega)^2.

    Works on floats/arrays and on jets (only ring ops, log, exp used).
    """
    half = 0.5
    v = spec.l + half / r
    b = spec.blend(r)
    log_conf = -(jets.log(v) + 2.0 * jets.log(r))
    conf = jets.exp(b * log_conf)
    a_coeff = conf * v

    variant = spec.variant
    if variant in (Variant.TN, Variant.CONFORMAL):
        q = 1.0 / v
        if variant is Variant.TN:
            return v, 1.0 / v
    else:
        t = 0.0 if variant is Variant.EXACT_D else spec.t
        vt = 1.0 + (half * t) / r
        # interpolate log(1/v) -> log(v / vt^2) with the blend profile
        log_q = (b - 1.0) * jets.log(v) \
            + b * (jets.log(v) - 2.0 * jets.log(vt))
        q = jets.exp(log_q)
    c_coeff = conf * q
    return a_coeff, c_coeff


def radial_coefficients(spec: MetricSpec, r):
    """(A, C) of the metric family at a radius or an array of radii."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("r must be positive")
    return _radial_coeffs(spec, r)


# ---------------------------------------------------------------------------
# Metric assembly


def _metric_entries(spec: MetricSpec, x1, x2, x3, gauge: Gauge):
    """4x4 nested list of metric components from (possibly jet) coordinates."""
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    r = jets.sqrt(r2)
    a_coeff, c_coeff = _radial_coeffs(spec, r)
    h = _gauge_factor(r, x3, x1 * x1 + x2 * x2, gauge)
    # a Jet times 0.0 is a Jet times the zero jet
    om = [(-1.0) * x2 * h, x1 * h, 0.0]
    g = [[None] * 4 for _ in range(4)]
    for i in range(3):
        for j in range(i, 3):
            entry = c_coeff * om[i] * om[j]
            if i == j:
                entry = entry + a_coeff
            g[i][j] = g[j][i] = entry
    for i in range(3):
        g[i][3] = g[3][i] = c_coeff * om[i]
    g[3][3] = c_coeff
    return g


def _vierbein(g: np.ndarray) -> np.ndarray:
    """Orthonormal frame E with E^T g E = I and positive orientation."""
    lo = np.linalg.cholesky(g)
    n = g.shape[-1]
    return np.linalg.solve(np.swapaxes(lo, -1, -2),
                           np.broadcast_to(np.eye(n), g.shape).copy())


def metric_at(spec: MetricSpec, p: Point,
              gauge: Gauge = Gauge.DEFAULT) -> MetricSample:
    """Coordinate metric of the selected variant at a point."""
    _check_chart(p.r, p.x1, p.x2, p.x3, gauge)
    entries = _metric_entries(spec, np.float64(p.x1), np.float64(p.x2),
                              np.float64(p.x3), gauge)
    g = np.array([[float(entries[i][j]) for j in range(4)] for i in range(4)])
    try:
        frame = _vierbein(g)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            f"metric not positive definite at {p}") from exc
    return MetricSample(g=g, frame=frame, point=p)


def metric_y_chart(spec: MetricSpec, r: float, theta: float) -> np.ndarray:
    """Metric matrix in the (dy, dtheta, dphi, dtau) basis, y = log r,
    with omega in the default gauge."""
    a_coeff, c_coeff = radial_coefficients(spec, r)
    w = 0.5 * np.cos(theta)  # omega = w dphi
    g = np.zeros((4, 4))
    g[0, 0] = a_coeff * r * r
    g[1, 1] = a_coeff * r * r
    g[2, 2] = a_coeff * r * r * np.sin(theta) ** 2 + c_coeff * w * w
    g[2, 3] = g[3, 2] = c_coeff * w
    g[3, 3] = c_coeff
    return g


# ---------------------------------------------------------------------------
# Curvature


def _metric_jet_arrays(spec: MetricSpec, xyz: np.ndarray, gauge: Gauge):
    """Metric, first, and second coordinate derivatives for a batch of points.

    Returns g (n,4,4), dg (n,4,4,4) indexed dg[:, mu, a, b] = d_mu g_ab,
    and d2g (n,4,4,4,4); tau-derivatives vanish identically.
    """
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    n = xyz.shape[0]
    x1 = Jet.variable(xyz[:, 0], 0)
    x2 = Jet.variable(xyz[:, 1], 1)
    x3 = Jet.variable(xyz[:, 2], 2)
    entries = _metric_entries(spec, x1, x2, x3, gauge)
    g = np.zeros((n, 4, 4))
    dg = np.zeros((n, 4, 4, 4))
    d2g = np.zeros((n, 4, 4, 4, 4))
    for a in range(4):
        for b in range(4):
            e = entries[a][b]
            g[:, a, b] = e.val
            dg[:, :3, a, b] = e.grad
            d2g[:, :3, :3, a, b] = e.hess
    return g, dg, d2g


def _fd_metric_arrays(spec: MetricSpec, xyz: np.ndarray, gauge: Gauge,
                      h: float):
    """Central-difference fallback for the derivative arrays."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    n = xyz.shape[0]

    def g_of(pts):
        x1 = Jet.constant(pts[:, 0]); x2 = Jet.constant(pts[:, 1])
        x3 = Jet.constant(pts[:, 2])
        entries = _metric_entries(spec, x1, x2, x3, gauge)
        out = np.zeros((pts.shape[0], 4, 4))
        for a in range(4):
            for b in range(4):
                out[:, a, b] = entries[a][b].val
        return out

    if np.any(np.linalg.norm(xyz, axis=1) <= 2.0 * h):
        raise DomainError("finite-difference stencil crosses r = 0")
    g = g_of(xyz)
    dg = np.zeros((n, 4, 4, 4))
    d2g = np.zeros((n, 4, 4, 4, 4))
    shifts = {}
    for mu in range(3):
        e = np.zeros(3); e[mu] = h
        shifts[(mu, +1)] = g_of(xyz + e)
        shifts[(mu, -1)] = g_of(xyz - e)
        dg[:, mu] = (shifts[(mu, +1)] - shifts[(mu, -1)]) / (2.0 * h)
        d2g[:, mu, mu] = (shifts[(mu, +1)] - 2.0 * g + shifts[(mu, -1)]) / h**2
    for mu in range(3):
        for nu in range(mu + 1, 3):
            emu = np.zeros(3); emu[mu] = h
            enu = np.zeros(3); enu[nu] = h
            mixed = (g_of(xyz + emu + enu) - g_of(xyz + emu - enu)
                     - g_of(xyz - emu + enu) + g_of(xyz - emu - enu)) \
                / (4.0 * h**2)
            d2g[:, mu, nu] = d2g[:, nu, mu] = mixed
    return g, dg, d2g


def _frame_transform(frame, lowered):
    """Frame components T_abcd = E^w_a E^x_b E^y_c E^z_d T_wxyz, contracted
    one index at a time (z, y, x, w): 4 * 4^5 multiply-adds per point,
    where one five-operand einsum loops over all 4^8 index tuples.  Two-operand
    einsum without `optimize` runs numpy's own loop, never BLAS, so the
    summation order and the bits do not depend on the thread count."""
    out = np.einsum("nwxyz,nzd->nwxyd", lowered, frame)
    out = np.einsum("nwxyd,nyc->nwxcd", out, frame)
    out = np.einsum("nwxcd,nxb->nwbcd", out, frame)
    return np.einsum("nwbcd,nwa->nabcd", out, frame)


def _riemann_from_arrays(g, dg, d2g):
    """Frame-converted lowered Riemann tensor and Ricci from metric jets."""
    ginv = np.linalg.inv(g)
    # Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    sym = (dg + np.einsum("ncdb->nbdc", dg) - np.einsum("ndbc->nbdc", dg))
    gamma = 0.5 * np.einsum("nad,nbdc->nabc", ginv, sym)
    # d_e Gamma: product rule with d_e g^{ad} = -(ginv dg ginv)
    dginv = -np.einsum("neac,ncd->nead",
                       np.einsum("nab,nebc->neac", ginv, dg), ginv)
    dsym = (d2g + np.einsum("necdb->nebdc", d2g)
            - np.einsum("nedbc->nebdc", d2g))
    dgamma = 0.5 * (np.einsum("nead,nbdc->neabc", dginv, sym)
                    + np.einsum("nad,nebdc->neabc", ginv, dsym))
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + G^a_{ce}G^e_{db}
    #            - G^a_{de}G^e_{cb}
    riem = (np.einsum("ncadb->nabcd", dgamma)
            - np.einsum("ndacb->nabcd", dgamma)
            + np.einsum("nace,nedb->nabcd", gamma, gamma)
            - np.einsum("nade,necb->nabcd", gamma, gamma))
    ricci = np.einsum("nabad->nbd", riem)
    lowered = np.einsum("nae,nebcd->nabcd", g, riem)
    frame = _vierbein(g)
    riem_frame = _frame_transform(frame, lowered)
    ricci_frame = np.einsum("nwa,nxb,nwx->nab", frame, frame, ricci)
    return riem_frame, ricci_frame, frame


def curvature_batch(spec: MetricSpec, xyz: np.ndarray,
                    gauge: Gauge = Gauge.DEFAULT):
    """Vectorized frame curvature for a batch of Cartesian points.

    Returns (riemann (n,4,4,4,4), ricci (n,4,4), g (n,4,4), frame (n,4,4)).
    """
    g, dg, d2g = _metric_jet_arrays(spec, xyz, gauge)
    riem, ricci, frame = _riemann_from_arrays(g, dg, d2g)
    return riem, ricci, g, frame


def curvature_at(spec: MetricSpec, p: Point, h: float | None = None,
                 gauge: Gauge = Gauge.DEFAULT,
                 method: str = "jet") -> CurvatureSample:
    """Riemann/Ricci data at one point, in the orthonormal frame.

    method="jet" propagates second-order jets through the closed-form
    metric; method="fd" uses central differences with step h (default
    1e-4 * r), for which the stencil must stay off the nut.
    """
    _check_chart(p.r, p.x1, p.x2, p.x3, gauge)
    xyz = p.xyz()[None, :]
    if method == "jet":
        g, dg, d2g = _metric_jet_arrays(spec, xyz, gauge)
    elif method == "fd":
        step = h if h is not None else 1e-4 * p.r
        if step <= 0:
            raise DomainError("differentiation step must be positive")
        g, dg, d2g = _fd_metric_arrays(spec, xyz, gauge, step)
    else:
        raise ValueError(f"unknown method {method!r}")
    riem, ricci, frame = _riemann_from_arrays(g, dg, d2g)
    sample = MetricSample(g=g[0], frame=frame[0], point=p)
    return CurvatureSample(riemann=riem[0], ricci=ricci[0], metric=sample)


# ---------------------------------------------------------------------------
# Hodge stars


_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _sign = 1.0
    _p = list(_perm)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _sign = -_sign
    _EPS4[_perm] = _sign


def hodge_star(sample: MetricSample, two_form: np.ndarray) -> np.ndarray:
    """Hodge star of a coordinate-basis 2-form with respect to the sample's
    metric and the fixed orientation dx1^dx2^dx3^dtau."""
    f = np.asarray(two_form, dtype=float)
    if f.shape != (4, 4):
        raise ValueError("expected a 4x4 antisymmetric matrix")
    g = sample.g
    det = np.linalg.det(g)
    if det <= 0:
        raise ConsistencyError("metric must be positive definite")
    ginv = np.linalg.inv(g)
    f_up = ginv @ f @ ginv.T
    return 0.5 * np.sqrt(det) * np.einsum("abcd,cd->ab", _EPS4, f_up)


def star3(one_form: np.ndarray) -> np.ndarray:
    """Euclidean 3d Hodge star of a 1-form, returned as an antisymmetric
    3x3 matrix of 2-form components."""
    f = np.asarray(one_form, dtype=float)
    out = np.zeros((3, 3))
    out[1, 2], out[2, 1] = f[0], -f[0]
    out[2, 0], out[0, 2] = f[1], -f[1]
    out[0, 1], out[1, 0] = f[2], -f[2]
    return out


def wedge4(alpha: np.ndarray, beta: np.ndarray):
    """Coefficient of the full top form in the wedge of two 2-forms given as
    antisymmetric matrices (supports leading batch dimensions)."""
    return (alpha[..., 0, 1] * beta[..., 2, 3]
            - alpha[..., 0, 2] * beta[..., 1, 3]
            + alpha[..., 0, 3] * beta[..., 1, 2]
            + alpha[..., 1, 2] * beta[..., 0, 3]
            - alpha[..., 1, 3] * beta[..., 0, 2]
            + alpha[..., 2, 3] * beta[..., 0, 1])
