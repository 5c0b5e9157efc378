"""Boundary circle-family spectral asymmetry: the eta-hat form on the Hopf
fibration computed by three independent routes.

The eta-hat form on the two-sphere base has a degree-0 part and a degree-2
part proportional to the fiber curvature R = -(1/2) vol.  Both are carried
in a ``FormScalar``: ``a0`` is the degree-0 value and ``a2`` the real factor
multiplying R/(2i), so that

    eta_hat(lambda) = a0 + a2 * R / (2i).

Routes:
  * mode_sum  - direct numerical evaluation of the superconnection heat
                integral over the Fourier modes, with the 2-form direction
                propagated as a nilpotent perturbation;
  * poisson   - the Poisson-resummed sine/cosine series with Abel
                regularization and Richardson extrapolation;
  * bernoulli - the exact closed form via fractional-part polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .gauge import (InstantonData, boundary_data, dist_to_integers,
                    frac_part, require_generic)
from .quadrature import ordered_dot

ROUTES = ("mode_sum", "poisson", "bernoulli")

# Flux of the fiber curvature R = dw = -(1/2) vol over the base sphere.
R_FLUX = -2.0 * np.pi


@dataclass(frozen=True)
class FormScalar:
    """eta-hat = a0 + a2 * R / (2i): the degree-0 value and the real factor
    of the degree-2 part."""

    a0: float
    a2: float


@dataclass(frozen=True)
class SeriesSpec:
    u_min: float = 1e-4
    u_max: float = 1e4
    n_u: int = 601                # u-grid size (odd, for nested halving)
    tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.u_min < 1e-3 and 1e3 < self.u_max < np.inf):
            raise ValueError("u-grid must span [<1e-3, >1e3] with "
                             "0 < u_min and a finite u_max")
        if self.n_u < 3:
            raise ValueError("u-grid needs n_u >= 3 points")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("series tolerance must be finite and positive")


@dataclass
class EtaResult:
    """Per-channel eta-hat values and their integral over the boundary
    sphere, with route provenance."""

    per_channel: list
    integrated: float
    route: str
    error_estimate: float


# ---------------------------------------------------------------------------
# Spectrum


def vertical_spectrum(lam: float, k_cutoff: int):
    """Eigenvalues {k - lambda : |k| <= K} of the fiber Dirac operator."""
    require_generic(lam)
    return [float(k - lam) for k in range(-k_cutoff, k_cutoff + 1)]


# ---------------------------------------------------------------------------
# Route 1: direct mode sum


def _u_grid(s: SeriesSpec):
    """Uniform grid in v = log u with trapezoid weights for du/(2 sqrt u);
    the integrand decays double-exponentially at the left end and like a
    Gaussian in u at the right end, so the trapezoid rule is spectral."""
    n = s.n_u if s.n_u % 2 == 1 else s.n_u + 1
    v = np.linspace(np.log(s.u_min), np.log(s.u_max), n)
    h = v[1] - v[0]
    u = np.exp(v)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    # du = u dv; measure du / (2 sqrt(u)) -> sqrt(u)/2 dv
    return u, w * np.sqrt(u) / 2.0


# exp(-t) is exactly 0.0 in IEEE double for t > 745.14: the series cut is
# never set past 746, where no further term can reach a sum.
_EXP_ZERO_ARG = 746.0
# What the series cut may drop from a0 and from a2: far below the sums'
# roundoff of about 1e-15.
_CUT_TOL = 1e-20
# Rows of the u grid evaluated together: few enough that the k window of a
# block's smallest u stays tight for its other rows, enough to amortise the
# per-block numpy calls.
_U_BLOCK = 16


def _mode_cut_prefactors(u, w):
    """The function t -> (P0, P2) for the grid (u, w): e^-t P0 and e^-t P2
    bound the parts of a0 and of a2 that the mode sum drops at the series
    cut t >= 1; see `_series_cut`."""
    scale = 2.0 / math.sqrt(math.pi)
    inv_root = 1.0 / np.sqrt(u)
    m_half, m_one, m_three_half = (scale * float(np.dot(w, inv_root ** e))
                                   for e in (1, 2, 3))

    def prefactors(t):
        rt = math.sqrt(t)
        return (rt * m_half + 0.5 * m_one,
                t * m_one + (0.5 * rt + 0.25 / rt) * m_three_half)
    return prefactors


def _series_cut(u, w):
    """The series cut T of one mode-sum call, which drops the terms with
    u x^2 > T: the smallest T for which the bounds below on the dropped part
    of a0 and of a2 are at most _CUT_TOL, capped at _EXP_ZERO_ARG.

    At a grid row u every dropped mode has u x^2 > T: the dropped x lie
    on both sides beyond X = sqrt(T/u), one apart.  For
    u x^2 >= 1 both f(x) = x e^(-u x^2) and g(x) = x^2 e^(-u x^2) decrease,
    so a side sums to at most its value at X plus its integral from X:

        sum f <= e^-T (sqrt(T/u) + 1/(2u)),
        sum g <= e^-T (T/u + (sqrt(T)/2 + 1/(4 sqrt(T))) u^(-3/2)),

    the second by parts with int_X^oo e^(-u x^2) dx <= e^(-u X^2)/(2uX).
    a0 sums f, and a2 sums (1 - 2u x^2) e^(-u x^2) / (2u), at most g in
    size once 2u x^2 >= 1.  Both sides, summed over the grid with the
    route's weights w / sqrt(pi), give |d a0| <= e^-T P0(T) and
    |d a2| <= e^-T P2(T) (`_mode_cut_prefactors`).

    P0 and P2 grow with T for T > 1/2, so the cut is the fixed point of
    T = ln(max(P0, P2)(T) / _CUT_TOL).  Iterating from _EXP_ZERO_ARG
    approaches it from above; every iterate keeps the bounds at most
    _CUT_TOL, and as d ln P / dT <= 1/T the fourth is within 1e-5 of the
    fixed point, which lies above 46."""
    prefactors = _mode_cut_prefactors(u, w)
    t = _EXP_ZERO_ARG
    for _ in range(4):
        t = min(_EXP_ZERO_ARG, math.log(max(*prefactors(t)) / _CUT_TOL))
    return t


def _mode_window(lam: float, u, t: float):
    """The ascending modes x = k - lambda that a block of the ascending
    u grid may read at the series cut t: |x| <= sqrt(t / u_min) and one
    guard mode on each side."""
    reach = math.sqrt(t / u[0])
    return np.arange(math.ceil(lam - reach) - 1, math.floor(lam + reach) + 2,
                     dtype=float) - lam


def _mode_blocks(u, x, t):
    """(row slice, column slice) pairs covering the ascending u grid in
    blocks of _U_BLOCK rows; the columns of a block are the contiguous
    window of the sorted modes x with u_first x^2 <= t, u_first being the
    block's smallest u, plus one guard mode on each side."""
    starts = range(0, u.size, _U_BLOCK)
    half = np.sqrt(t / u[::_U_BLOCK])
    lo = np.maximum(np.searchsorted(x, -half) - 1, 0)
    hi = np.searchsorted(x, half, side="right") + 1
    return [(slice(i, i + _U_BLOCK), slice(a, b))
            for i, a, b in zip(starts, lo.tolist(), hi.tolist())]


def _block_sums(u, x, rows, cols):
    """Row sums of one block of the mode sum: the degree-0 terms
    x exp(-u x^2) and the imaginary parts of the nilpotent terms.

    The 2-form direction enters as z = x + nil * eps with nil = -i/(4u), and
    w(z) = z exp(-u z^2) to first order in eps is nil (1 - 2u x^2) exp(-u x^2)
    times eps.  Every factor but nil is real, so the eps coefficient is
    purely imaginary and only its imaginary part is carried.  The factor
    -1/(4u) of nil is the same along a row, so it multiplies the row sum of
    (1 - 2u x^2) exp(-u x^2) once, after the sum."""
    xb = x[cols][None, :]                   # (1, window)
    uu = u[rows, None]                      # (nb, 1)
    arg = -uu * xb
    arg *= xb                               # -u x^2
    e_val = np.exp(arg)
    arg *= 2.0
    arg += 1.0                              # 1 - 2u x^2
    arg *= e_val
    return (xb * e_val).sum(axis=1), (-0.25 / u[rows]) * arg.sum(axis=1)


def eta_mode_sum(lam: float, s: SeriesSpec | None = None) -> FormScalar:
    """Heat-kernel mode sum for eta-hat, with the 2-form direction carried
    as a nilpotent (first-order) perturbation of the spectrum.

    Each block of u rows evaluates only the modes with u x^2 up to the
    series cut (`_mode_blocks`, `_series_cut`): the terms it drops change
    a0 and a2 by at most 1e-20 each.  So the route builds only the modes
    x = k - lambda with |x| <= sqrt(T / u_min), plus one guard mode on each
    side, wherever lambda lies.  The block of the largest u runs first:
    if the integrand there is not negligible, the u-integral tail exceeds
    the series tolerance and ConvergenceError is raised before the other
    blocks run.  The trapezoid rule on the even rows (step 2h) must agree
    with the full grid to within the series tolerance, else the u grid is
    too coarse and ConvergenceError is raised."""
    s = s or SeriesSpec()
    require_generic(lam)
    u, w = _u_grid(s)
    t = _series_cut(u, w)
    x = _mode_window(lam, u, t)
    sum_val = np.empty(u.size)
    sum_nil = np.empty(u.size)
    *head, (rows, cols) = _mode_blocks(u, x, t)
    sum_val[rows], sum_nil[rows] = _block_sums(u, x, rows, cols)
    integrand_scale = np.abs(sum_val[-1]) + np.abs(sum_nil[-1])
    if integrand_scale * np.sqrt(u[-1]) > s.tol:
        raise ConvergenceError(
            f"u-integral tail {integrand_scale:.3e} at u_max={u[-1]:.1e} "
            "exceeds the series tolerance; increase u_max")
    for rows, cols in head:
        sum_val[rows], sum_nil[rows] = _block_sums(u, x, rows, cols)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    a0 = inv_sqrt_pi * ordered_dot(sum_val, w)
    nil = inv_sqrt_pi * ordered_dot(sum_nil, w)
    # the even rows with step 2h: the trapezoid weights are exactly 2 w
    w_half = 2.0 * w[::2]
    a0_half = inv_sqrt_pi * ordered_dot(sum_val[::2], w_half)
    nil_half = inv_sqrt_pi * ordered_dot(sum_nil[::2], w_half)
    half_miss = max(abs(a0 - a0_half), 2.0 * abs(nil - nil_half))
    if half_miss > s.tol:
        raise ConvergenceError(
            f"u-grid of {u.size} points is unresolved: the half grid "
            f"differs by {half_miss:.3e}, above the series tolerance; "
            "increase n_u")
    # eta_2 = i nil * R; against R/(2i) the real factor is i nil * 2i
    return FormScalar(float(a0), float(-2.0 * nil))


# ---------------------------------------------------------------------------
# Route 2: Poisson-resummed series


# 1 - q at the Neville levels of the Poisson route's Abel extrapolation
_ABEL_X = 0.25 * 0.5 ** np.arange(8)
# sum_i |c_i| / (pi (1 - q_i)) over the weights c_i of the extrapolation to
# q = 1, which are those of the interpolating polynomial's value at x = 0
_ABEL_CUT_PREFACTOR = float(sum(
    abs(np.prod(np.delete(_ABEL_X, i) / (np.delete(_ABEL_X, i) - x)))
    / (np.pi * x) for i, x in enumerate(_ABEL_X)))
# The Poisson route's series cut T_P: each Neville level sums only the
# powers q^p with p ln(1/q) <= T_P.  The first power it drops has
# p ln(1/q) > T_P, and every term of either series is at most q^p / (pi p)
# in size, so a level drops less than e^-T_P / (pi (1 - q)), and through
# the Neville weights the extrapolant less than e^-T_P _ABEL_CUT_PREFACTOR.
# ln(_ABEL_CUT_PREFACTOR / _CUT_TOL) = 52.84 is rounded up so that this
# bound is at most _CUT_TOL in floating point too.
_POISSON_CUT = float(math.ceil(math.log(_ABEL_CUT_PREFACTOR / _CUT_TOL)))


def abel_extrapolate(sums_of_q):
    """Neville extrapolation of Abel-regularized sums to q -> 1 from the
    levels q = 1 - _ABEL_X.

    ``sums_of_q`` maps q in (0,1) to an array of damped partial sums, each
    extrapolated on its own.  Returns (values, error_estimates), the error
    estimate being the difference of the last two tableau entries."""
    xs, levels = _ABEL_X, _ABEL_X.size
    tableau = np.array([sums_of_q(1.0 - x) for x in xs])
    for m in range(1, levels):
        for i in range(levels - 1, m - 1, -1):
            tableau[i] = tableau[i] + (tableau[i] - tableau[i - 1]) \
                * xs[i] / (xs[i - m] - xs[i])
    return tableau[-1], np.abs(tableau[-1] - tableau[-2])


def _live_powers(q: float) -> int:
    """How many powers q^p, p = 1, 2, ..., have p ln(1/q) <= _POISSON_CUT:
    the leading terms that a damped sum at level q reads."""
    return int(_POISSON_CUT / -math.log(q))


def eta_poisson(lam: float, s: SeriesSpec | None = None) -> FormScalar:
    """Poisson-route evaluation: a0 from the sine series (Abel regularized,
    it converges only conditionally), a2 from the cosine series.

    Both series share one damped-power array per Neville level, and each
    damped sum is numpy's pairwise sum, not a BLAS dot: OpenBLAS splits a
    dot of more than 10^4 terms across its threads, and the last bits of
    the sum then follow OPENBLAS_NUM_THREADS.

    Each level sums only its live prefix, the powers up to the series cut
    (`_live_powers`, `_POISSON_CUT`), which changes a0 and a2 by at most
    1e-20; the level nearest q = 1 reads the most terms and sizes the
    series.

    The route refuses with ConvergenceError when its own error estimate,
    the Neville difference of either extrapolation, exceeds the series
    tolerance."""
    s = s or SeriesSpec()
    require_generic(lam)
    p = np.arange(1, _live_powers(1.0 - _ABEL_X[-1]) + 1, dtype=float)
    # period 1 in lambda, and x - floor(x) is exact, so no digits are lost
    theta = 2.0 * np.pi * p * frac_part(lam)
    terms = np.stack([np.sin(theta) / (-np.pi * p),
                      np.cos(theta) / (np.pi**2 * p * p)])

    def damped_sums(q):
        n = _live_powers(q)
        return (q ** p[:n] * terms[:, :n]).sum(axis=1)

    (a0, a2), diffs = abel_extrapolate(damped_sums)
    diff = diffs.max()
    if diff > s.tol:
        raise ConvergenceError(
            f"poisson route at lambda = {float(lam)!r} (distance "
            f"{dist_to_integers(lam):.3e} to the integers) is unresolved: "
            f"the Neville extrapolation differs by {diff:.3e}, above "
            f"the series tolerance {s.tol:.3e}")
    return FormScalar(float(a0), float(a2))


# ---------------------------------------------------------------------------
# Route 3: Bernoulli closed form


def eta_bernoulli(lam: float) -> FormScalar:
    """Exact closed form: a0 = {lambda} - 1/2, a2 = {lambda}^2 - {lambda}
    + 1/6, fractional parts in (0, 1)."""
    require_generic(lam)
    f = frac_part(lam)
    return FormScalar(f - 0.5, f * f - f + 1.0 / 6.0)


# ---------------------------------------------------------------------------
# Poisson summation identity (standalone check)


def poisson_check(a: float, s_param: float):
    """Both sides of the Gaussian Poisson-summation identity

        sum_k (k+a) e^(-4 pi^2 s (k+a)^2)
            = sum_{p>=1} 2 p sin(2 pi p a) (4 pi s)^(-3/2) e^(-p^2/(4s)),

    with |k| <= 2000 and p <= 200.
    """
    if s_param <= 0:
        raise ValueError("s must be positive")
    k = np.arange(-2000, 2001, dtype=float)
    lhs = float(np.sum((k + a) * np.exp(-4.0 * np.pi**2 * s_param
                                        * (k + a) ** 2)))
    p = np.arange(1, 201, dtype=float)
    with np.errstate(under="ignore"):
        rhs = float(np.sum(2.0 * p * np.sin(2.0 * np.pi * p * a)
                           * (4.0 * np.pi * s_param) ** -1.5
                           * np.exp(-p * p / (4.0 * s_param))))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Channel evaluation and the boundary integral


def eta_form(lam: float, route: str, series: SeriesSpec | None = None
             ) -> FormScalar:
    if route == "mode_sum":
        return eta_mode_sum(lam, series)
    if route == "poisson":
        return eta_poisson(lam, series)
    if route == "bernoulli":
        return eta_bernoulli(lam)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def route_error_estimate(route: str, series: SeriesSpec | None = None
                         ) -> float:
    series = series or SeriesSpec()
    return 0.0 if route == "bernoulli" else series.tol


def eta_integral(data: InstantonData, route: str = "bernoulli",
                 series: SeriesSpec | None = None) -> EtaResult:
    """(1/2 pi i) oint eta-hat over the boundary sphere, trace-summed over
    channels, including the degree-2 coupling to the channel fluxes.

    Per channel: -a0 * chern + a2 / 2, from the fluxes oint R = -2 pi and
    (1/2 pi i) oint F^W = chern."""
    lambdas, cherns, _ = boundary_data(data)
    per_channel = []
    total = 0.0
    for lam_red, chern in zip(lambdas, cherns):
        form = eta_form(lam_red, route, series)
        per_channel.append(form)
        total += -form.a0 * chern + 0.5 * form.a2
    return EtaResult(per_channel=per_channel, integrated=total, route=route,
                     error_estimate=route_error_estimate(route, series)
                     * data.rank)


# ---------------------------------------------------------------------------
# Route comparison table


def route_table(lambdas, series: SeriesSpec | None = None, routes=ROUTES):
    """Rows (lambda, route, a0, a2, integrated_at_chern0, error); only the
    given routes are evaluated."""
    rows = []
    for lam in lambdas:
        for route in routes:
            form = eta_form(lam, route, series)
            rows.append((lam, route, form.a0, form.a2, 0.5 * form.a2,
                         route_error_estimate(route, series)))
    return rows

