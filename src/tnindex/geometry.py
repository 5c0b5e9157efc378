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
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import jets
from .errors import ChartError, ConsistencyError, DomainError
from .jets import Jet

AXIS_TOL = 1e-8

# Ordered basis of 2-form index pairs used throughout.
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# index arrays that broadcast to PAIRS x PAIRS: (a, b) down, (c, d) across
_A, _B = np.array(PAIRS).T[:, :, None]
_C, _D = np.array(PAIRS).T[:, None, :]


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
        return float(np.sqrt(self.x1 * self.x1 + self.x2 * self.x2
                             + self.x3 * self.x3))

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
        if not (np.inf > self.r_out > self.r_in > 0):
            raise ValueError("require r_out > r_in > 0, both finite")
        if self.kind not in ("quintic", "septic"):
            raise ValueError(f"unknown blend kind {self.kind!r}")

    def __call__(self, r):
        """Evaluate the profile; accepts floats, arrays, or jets, all through
        one Horner form with `*` only, so they agree bit for bit."""
        jet = isinstance(r, Jet)
        s = ((r if jet else np.asarray(r, dtype=float)) - self.r_in) \
            * (1.0 / (self.r_out - self.r_in))
        if not jet:
            s = np.clip(s, 0.0, 1.0)
        if self.kind == "quintic":
            poly = s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
        else:
            poly = (s * s * s * s) * (
                35.0 + s * (-84.0 + s * (70.0 - 20.0 * s)))
        if not jet:
            return poly
        return jets.where(s.val >= 1.0, 1.0,
                          jets.where(s.val <= 0.0, 0.0, poly))


@dataclass(frozen=True)
class MetricSpec:
    variant: Variant = Variant.TN
    t: float = 0.0
    blend: BlendProfile = field(default_factory=BlendProfile)
    l: float = 1.0

    def __post_init__(self):
        if not 0 < self.l < np.inf:
            raise ValueError("mass parameter l must be finite and positive")
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


def potential_and_omega(p: Point, gauge: Gauge = Gauge.DEFAULT):
    """Harmonic potential V = 1 + 1/(2r) (l = 1) and a gauge of omega with
    d(omega) = star3 dV, as Cartesian components."""
    r, omega = chart_omega(p.xyz(), gauge)
    return 1.0 + 0.5 / r, omega


# ---------------------------------------------------------------------------
# Radial coefficients of the metric family


def _radial_coeffs(spec: MetricSpec, r):
    """(A, C) such that g = A dx^2 + C (dtau + omega)^2.

    Works on floats/arrays and on jets (only ring ops, log, exp used).
    """
    half = 0.5
    v = spec.l + half / r
    if spec.variant is Variant.TN:
        return v, 1.0 / v
    log_v = jets.log(v)
    b = jets.shared(spec.blend, r)
    log_conf = -(log_v + 2.0 * jets.log(r))
    conf = jets.exp(b * log_conf)
    if spec.variant is Variant.CONFORMAL:
        return conf * v, conf * (1.0 / v)
    t = 0.0 if spec.variant is Variant.EXACT_D else spec.t
    vt = 1.0 + (half * t) / r
    # interpolate log(1/v) -> log(v / vt^2) with the blend profile
    log_q = (b - 1.0) * log_v + b * (log_v - 2.0 * jets.log(vt))
    return conf * v, conf * jets.exp(log_q)


def radial_coefficients(spec: MetricSpec, r):
    """(A, C) of the metric family at a radius or an array of radii."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("r must be positive")
    return _radial_coeffs(spec, r)


# ---------------------------------------------------------------------------
# Metric assembly


def _point_radii(xyz: np.ndarray) -> np.ndarray:
    """r at the points xyz (n, 3), formed as _metric_entries forms it."""
    x1, x2, x3 = np.atleast_2d(np.asarray(xyz, dtype=float)).T
    return np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)


def _radial_jets(spec: MetricSpec, xyz: np.ndarray):
    """(A, C) as one-variable jets in r at the points xyz (n, 3), with r
    formed as _metric_entries forms it: a slice lifts to the bits that the
    chunk of its points would compute for itself."""
    return _radial_coeffs(spec, jets.seed(_point_radii(xyz)))


def _chart_jets(x1, x2, x3, gauge: Gauge, squares=None):
    """(r, omega_1, omega_2) of the points (x1, x2, x3), with omega = h
    (-x2, x1, 0) of _gauge_factor: floats, arrays, or seed jets with their
    squares."""
    sq1, sq2, sq3 = squares or (x1 * x1, x2 * x2, x3 * x3)
    rho2 = sq1 + sq2
    r = jets.sqrt(rho2 + sq3)
    h = _gauge_factor(r, x3, rho2, gauge)
    return r, (-1.0) * x2 * h, x1 * h


def _seed_chart(xyz: np.ndarray, gauge: Gauge):
    """_chart_jets of the points xyz (n, 3) on their coordinate seed jets:
    what _metric_entries needs of the points, whatever the metric."""
    cols = list(enumerate(xyz.T))
    return _chart_jets(*(Jet.variable(x, i) for i, x in cols), gauge,
                       [Jet.variable_square(x, i) for i, x in cols])


def _metric_entries(spec: MetricSpec, x1, x2, x3, gauge: Gauge,
                    radial=None, squares=None):
    """4x4 nested list of metric components from coordinates, floats or
    arrays, or seed jets with their squares and radial, the _radial_jets of
    their points, which is lifted to the coordinates by the chain rule.
    When radial holds the _chart_jets of the points after those two jets,
    as a chunk of a grid set passes them, they stand for the coordinates."""
    if radial is not None and len(radial) > 2:
        r, *om = radial[2:]
    else:
        r, *om = _chart_jets(x1, x2, x3, gauge, squares)
    a_coeff, c_coeff = (_radial_coeffs(spec, r) if radial is None
                        else jets.lift(radial[:2], r))
    # the x3 row and column hold A and zeros, since omega_3 = 0
    zero = 0.0 * a_coeff
    g = [[zero] * 4 for _ in range(4)]
    for i in range(2):
        g[i][3] = g[3][i] = c_coeff * om[i]
        for j in range(i, 2):
            entry = g[i][3] * om[j]
            g[i][j] = g[j][i] = entry + a_coeff if i == j else entry
    g[2][2] = a_coeff
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


# ---------------------------------------------------------------------------
# Curvature


def _metric_jet_arrays(spec: MetricSpec, xyz: np.ndarray, gauge: Gauge,
                       radial=None):
    """Metric jets for a batch of points as a table of the m distinct entry
    jets of _metric_entries, found by identity, point index last: val (m, n),
    grad (3m+1, n) with d_e of entry k in row 3k+e, hess (9m+1, n) with
    d_e d_f of entry k in row 9k+3e+f, and idx (4, 4), the row of each metric
    entry.  The last rows of grad and hess are zero: nothing depends on tau.
    radial is _radial_jets of these points, formed here when omitted, and
    may hold their _chart_jets in this gauge after it (_metric_entries);
    else they are formed here."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if radial is None:
        radial = _radial_jets(spec, xyz)
    if len(radial) == 2:
        radial = [*radial, *_seed_chart(xyz, gauge)]
    entries = _metric_entries(spec, None, None, None, gauge, radial)
    table = list({id(e): e for row in entries for e in row}.values())
    rows = {id(e): k for k, e in enumerate(table)}
    zero = np.zeros((1, xyz.shape[0]))
    return (np.stack([e.val for e in table]),
            np.concatenate([e.grad for e in table] + [zero]),
            np.concatenate([e.hess.reshape(9, -1) for e in table] + [zero]),
            np.array([[rows[id(e)] for e in row] for row in entries]))


def _fd_metric_arrays(spec: MetricSpec, xyz: np.ndarray, gauge: Gauge,
                      h: float):
    """Central-difference fallback for the jet table of _metric_jet_arrays,
    with one row per metric entry."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))

    def g_of(pts):
        return np.array(_metric_entries(spec, *pts.T, gauge))

    if np.any(np.linalg.norm(xyz, axis=1) <= 2.0 * h):
        raise DomainError("finite-difference stencil crosses r = 0")
    step, n = h * np.eye(3), len(xyz)
    g = g_of(xyz)
    grad, hess = np.zeros((49, n)), np.zeros((145, n))
    dg, d2g = grad[:48].reshape(4, 4, 3, n), hess[:144].reshape(4, 4, 3, 3, n)
    for mu in range(3):
        plus, minus = g_of(xyz + step[mu]), g_of(xyz - step[mu])
        dg[:, :, mu] = (plus - minus) / (2.0 * h)
        d2g[:, :, mu, mu] = (plus - 2.0 * g + minus) / h**2
        for nu in range(mu + 1, 3):
            d2g[:, :, mu, nu] = d2g[:, :, nu, mu] = (
                g_of(xyz + step[mu] + step[nu])
                - g_of(xyz + step[mu] - step[nu])
                - g_of(xyz - step[mu] + step[nu])
                + g_of(xyz - step[mu] - step[nu])) / (4.0 * h**2)
    return g.reshape(16, n), grad, hess, np.arange(16).reshape(4, 4)


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


def _metric_inverse(val, idx):
    """g^-1 (4,4,n) of point-last metrics of the form A dx^2 + C (dtau +
    omega)^2, given as a table val with entry rows idx, in closed form
    (Eguchi, Gilkey & Hanson, Phys. Rep. 66 (1980) 213): g^ij = delta^ij / A,
    g^i tau = -omega_i / A and g^tau tau = 1/C + |omega|^2 / A, read off g as
    A = g_33, C = g_tau tau, omega_i = g_i tau / C.  Elementwise, so a
    point's bits do not depend on its batch."""
    a_inv, c_coeff = 1.0 / val[idx[2, 2]], val[idx[3, 3]]
    omega = val[idx[:3, 3]] / c_coeff
    ginv = np.zeros((4, 4) + val.shape[1:])
    ginv[[0, 1, 2], [0, 1, 2]] = a_inv
    ginv[:3, 3] = ginv[3, :3] = -omega * a_inv
    ginv[3, 3] = 1.0 / c_coeff + (omega[0] * omega[0] + omega[1] * omega[1]
                                  + omega[2] * omega[2]) * a_inv
    return ginv


@lru_cache(maxsize=4)
def _gather_maps(idx: tuple, m: int):
    """Row maps into the grad and hess tables of _metric_jet_arrays, m
    entries at the rows idx (flat 4x4): d_b g_fc, d_c g_fb and d_f g_bc on
    (f, b, c), then the four d^2 g terms of _lowered_riemann on PAIRS x
    PAIRS.  A tau-derivative maps to the zero row."""
    idx, ax = np.reshape(idx, (4, 4)), np.arange(4)[:, None, None]
    d = np.where(ax < 3, 3 * idx + ax, 3 * m)   # d_e g_ab at (e, a, b)
    dd = np.where((ax < 3) & (ax[:, None] < 3),
                  9 * idx + 3 * ax[:, None] + ax, 9 * m)   # (e, f, a, b)
    return (d.transpose(1, 0, 2), d.transpose(1, 2, 0), d,
            dd[_B, _C, _A, _D], dd[_A, _D, _B, _C], dd[_B, _D, _A, _C],
            dd[_A, _C, _B, _D])


# rows of a (4, 4) index pair, flattened, that broadcast to PAIRS x PAIRS
_BC, _AD, _BD, _AC = 4 * _B + _C, 4 * _A + _D, 4 * _B + _D, 4 * _A + _C


@lru_cache(maxsize=4)
def _workspace(n: int):
    """The working arrays of _lowered_riemann and _riemann_from_arrays for
    n points, kept for the last four n, so that a chunk writes where the
    one before it wrote, not into fresh memory that the heap faults in: the
    Christoffel symbols Gamma_f,bc and Gamma^f_bc (2,4,4,4,n), the lowered
    tensor (6,6,n), and scratch (3,6,6,n) for the gathers and products,
    then for the 2-form matrix (4,4,6,n).  A call writes every entry it
    reads, so nothing of one call reaches the next."""
    return np.empty((2, 4, 4, 4, n)), np.empty((6, 6, n)), \
        np.empty((3, 6, 6, n))


def _carve(scratch, shape):
    """The first entries of the contiguous array scratch, viewed as shape."""
    return scratch.reshape(-1)[:math.prod(shape)].reshape(shape)


def _take(table, rows, out):
    """table[rows] into out; mode "clip" writes there directly, where
    "raise" would go through a temporary."""
    return table.take(rows, axis=0, out=out, mode="clip")


def _lowered_riemann(val, grad, hess, idx):
    """The lowered curvature tensor on PAIRS x PAIRS, shape (6,6,n), from
    the metric jet table of _metric_jet_arrays, and the g^-1 (4,4,n) it used:

        R_ab,cd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
                  + Gamma_f,bc Gamma^f_ad - Gamma_f,bd Gamma^f_ac.

    Each term gathers table rows through _gather_maps; each contraction is
    a two-operand einsum with the point index as its contiguous inner axis
    or an elementwise sum: numpy's own loop, never BLAS, in an order that
    depends neither on the batch size nor on the thread count.  Every step
    writes into the _workspace of n points, so the tensor is valid until
    the next call for n points; g^-1 is a fresh array."""
    d_b, d_c, d_f, bcad, adbc, bdac, acbd = _gather_maps(
        tuple(idx.ravel().tolist()), len(val))
    ginv = _metric_inverse(val, idx)
    n = val.shape[-1]
    (low, up), lowered, scratch = _workspace(n)
    gathered = _carve(scratch, low.shape)
    # Gamma_f,bc = 1/2 (d_b g_fc + d_c g_fb - d_f g_bc); 0.0 + turns -0.0
    # into 0.0, as a sum into zeros does
    np.add(0.0, _take(grad, d_b, low), out=low)
    np.add(low, _take(grad, d_c, gathered), out=low)
    np.subtract(low, _take(grad, d_f, gathered), out=low)
    np.multiply(0.5, low, out=low)
    np.einsum("fen,ebcn->fbcn", ginv, low, out=up)
    first, second, third = scratch
    np.add(_take(hess, bcad, lowered), _take(hess, adbc, first), out=lowered)
    np.subtract(lowered, _take(hess, bdac, first), out=lowered)
    np.subtract(lowered, _take(hess, acbd, first), out=lowered)
    np.multiply(0.5, lowered, out=lowered)
    # one f at a time, in a fixed order of the f sum
    for lo, hi in zip(low.reshape(4, 16, n), up.reshape(4, 16, n)):
        np.multiply(_take(lo, _BC, first), _take(hi, _AD, second), out=first)
        np.multiply(_take(lo, _BD, second), _take(hi, _AC, third),
                    out=second)
        np.subtract(first, second, out=first)
        np.add(lowered, first, out=lowered)
    return lowered, ginv


def _riemann_from_arrays(val, grad, hess, idx):
    """The six mixed coordinate curvature 2-forms R^a_b,cd on PAIRS, shape
    (6,4,4,n), from the jet table of _metric_jet_arrays: the lowered tensor
    raised on its first index by g^-1, its 2-form matrix expanded in the
    scratch of the _workspace, into a fresh array."""
    lowered, ginv = _lowered_riemann(val, grad, hess, idx)
    _, _, scratch = _workspace(val.shape[-1])
    matrix = two_form_matrix(lowered,
                             _carve(scratch, (4, 4) + lowered.shape[1:]))
    return np.einsum("aen,ebqn->qabn", ginv, matrix)


def _frame_curvature(val, grad, hess, idx):
    """Frame Riemann tensor (n,4,4,4,4), fully lowered, frame Ricci (n,4,4),
    metric and vierbein (n,4,4) from the jet table of _metric_jet_arrays,
    through the lowered tensor of _lowered_riemann."""
    lowered, _ = _lowered_riemann(val, grad, hess, idx)
    g = np.moveaxis(val[idx], -1, 0)
    # (c, d, a, b, n) from both pair axes, to (n, a, b, c, d), contiguous
    # for the einsum loops
    riem = np.ascontiguousarray(two_form_matrix(np.moveaxis(
        two_form_matrix(lowered), 2, 0)).transpose(4, 2, 3, 0, 1))
    frame = _vierbein(g)
    riem = _frame_transform(frame, riem)
    # the frame is orthonormal: R_bd = sum_a R_abad
    return riem, np.einsum("nabad->nbd", riem), g, frame


def curvature_forms(spec: MetricSpec, xyz: np.ndarray,
                    gauge: Gauge = Gauge.DEFAULT, radial=None) -> np.ndarray:
    """Mixed coordinate curvature 2-forms (6,4,4,n) on PAIRS at a batch of
    Cartesian points; each point's bits do not depend on the batch.  radial
    is _radial_jets of these points, formed here when omitted."""
    return _riemann_from_arrays(*_metric_jet_arrays(spec, xyz, gauge, radial))


def curvature_form_chunks(spec: MetricSpec, xyz: np.ndarray, size: int,
                          radial):
    """curvature_forms over consecutive chunks of at most `size` of the
    points xyz (n, 3), in order, which bounds the working set.  A and C are
    differentiated once, on radial, one radial jet over all n points with r
    formed as _radial_jets forms it, and each chunk lifts its slice:
    elementwise work, so a point keeps its bits."""
    for i in range(0, len(xyz), size):
        part = slice(i, i + size)
        yield curvature_forms(spec, xyz[part], Gauge.DEFAULT,
                              [y[part] for y in radial])


def curvature_batch(spec: MetricSpec, xyz: np.ndarray,
                    gauge: Gauge = Gauge.DEFAULT):
    """Vectorized frame curvature for a batch of Cartesian points.

    Returns (riemann (n,4,4,4,4), ricci (n,4,4), g (n,4,4), frame (n,4,4)).
    """
    return _frame_curvature(*_metric_jet_arrays(spec, xyz, gauge))


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
        arrays = _metric_jet_arrays(spec, xyz, gauge)
    elif method == "fd":
        step = h if h is not None else 1e-4 * p.r
        if step <= 0:
            raise DomainError("differentiation step must be positive")
        arrays = _fd_metric_arrays(spec, xyz, gauge, step)
    else:
        raise ValueError(f"unknown method {method!r}")
    riem, ricci, g, frame = _frame_curvature(*arrays)
    sample = MetricSample(g=g[0], frame=frame[0], point=p)
    return CurvatureSample(riemann=riem[0], ricci=ricci[0], metric=sample)


# ---------------------------------------------------------------------------
# Hodge stars


_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    # the sign of a permutation is -1 to the number of its inversions
    _EPS4[_perm] = (-1.0) ** sum(
        a > b for a, b in itertools.combinations(_perm, 2))


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


def two_form_matrix(pairs: np.ndarray, out=None) -> np.ndarray:
    """The antisymmetric (4, 4, ...) matrix of 2-form components given on
    PAIRS along the first axis, shape (6, ...), written into out when it is
    given."""
    if out is None:
        out = np.zeros((4, 4) + pairs.shape[1:])
    else:
        out[range(4), range(4)] = 0.0
    for k, (a, b) in enumerate(PAIRS):
        out[a, b], out[b, a] = pairs[k], -pairs[k]
    return out


def wedge4(alpha, beta):
    """Coefficient of dx1^dx2^dx3^dtau in the wedge of two 2-forms given on
    PAIRS along their first axis; any trailing axes are elementwise.  The
    square of a form takes each of its three distinct products once: x y =
    y x exactly, so the sum keeps the order and the bits of the general
    case."""
    if alpha is beta:
        p05, p14, p23 = (alpha[0] * alpha[5], alpha[1] * alpha[4],
                         alpha[2] * alpha[3])
        return p05 - p14 + p23 + p23 - p14 + p05
    return (alpha[0] * beta[5] - alpha[1] * beta[4] + alpha[2] * beta[3]
            + alpha[3] * beta[2] - alpha[4] * beta[1] + alpha[5] * beta[0])
