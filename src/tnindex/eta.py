"""Boundary circle-family spectral asymmetry: the eta-hat form on the Hopf
fibration computed by three independent routes.

The eta-hat form on the two-sphere base has a degree-0 part and a degree-2
part proportional to the fiber curvature R = -(1/2) vol.  Both are carried
in a ``FormScalar``: ``a0`` is the degree-0 value and ``a2`` the real factor
multiplying R/(2i), so that

    eta_hat(lambda) = a0 + a2 * R / (2i).

Routes:
  * mode_sum  - the superconnection heat integral over the Fourier modes,
                with the 2-form direction propagated as a nilpotent
                perturbation, each mode integrated over u in closed form
                above a fixed split point (an Ewald split);
  * poisson   - the Poisson-resummed sine/cosine series with Abel
                regularization and Richardson extrapolation;
  * bernoulli - the exact closed form via fractional-part polynomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .gauge import (InstantonData, boundary_data, dist_to_integers,
                    frac_part, require_generic)
from .quadrature import ROUNDOFF

ROUTES = ("mode_sum", "poisson", "bernoulli")


@dataclass(frozen=True)
class FormScalar:
    """eta-hat = a0 + a2 * R / (2i): the degree-0 value and the real factor
    of the degree-2 part, with the route's bound on the miss of each."""

    a0: float
    a2: float
    error: float


@dataclass(frozen=True)
class SeriesSpec:
    tol: float = 1e-8   # Poisson's reported error, and its refusal threshold

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")


# ---------------------------------------------------------------------------
# Spectrum


def vertical_spectrum(lam: float, k_cutoff: int):
    """Eigenvalues {k - lambda : |k| <= K} of the fiber Dirac operator."""
    require_generic(lam)
    return [float(k - lam) for k in range(-k_cutoff, k_cutoff + 1)]


# ---------------------------------------------------------------------------
# Route 1: direct mode sum


# The split point s of the heat integral: above it every mode is integrated
# over u in closed form, below it the integrand is exponentially small.
_SPLIT_U = 0.2
# The modes x = k - {lambda} with |k| <= _MODE_K are summed; those dropped
# have s x^2 > s _MODE_K^2 = 57.8.
_MODE_K = 17
# What either series route may drop from a0 and from a2: far below the
# sums' roundoff of about 1e-15.
_CUT_TOL = 1e-20


def eta_mode_sum(lam: float) -> FormScalar:
    """Heat-kernel mode sum for eta-hat, with the 2-form direction carried
    as a nilpotent (first-order) perturbation of the spectrum, each mode
    integrated over u from s = _SPLIT_U to infinity in closed form.

    With the measure du / (2 sqrt(pi u)), a0 integrates
    sum_x x e^(-u x^2).  The nilpotent shift x -> x - i eps/(4u) adds
    -i eps/(4u) sum_x (1 - 2u x^2) e^(-u x^2) to first order, so against
    R/(2i) a2 integrates sum_x (1/(2u) - x^2) e^(-u x^2).  Substituting
    u = t^2, and integrating by parts for a2, one mode x gives

        a0: (1/2) sgn(x) erfc(|x| sqrt(s)),
        a2: e^(-s x^2) / (2 sqrt(pi s)) - |x| erfc(|x| sqrt(s)).

    The route reduces lambda mod 1 (x - floor(x) is exact) and sums the
    modes x = k - {lambda}, |k| <= _MODE_K.  It drops two parts, each far
    below _CUT_TOL:

      * the integral below s.  Poisson summation over k turns both
        integrands into sums over p >= 1, the p = 0 term cancelling
        exactly: |sum_x x e^(-u x^2)| <= sum_p 2 pi^(3/2) p u^(-3/2)
        e^(-pi^2 p^2/u), and |sum_x (1/(2u) - x^2) e^(-u x^2)|
        <= sum_p 2 pi^(5/2) p^2 u^(-5/2) e^(-pi^2 p^2/u).  Over [0, s]
        with the measure they weigh at most sum_p e^(-pi^2 p^2/s)/(pi p)
        in a0 and sum_p e^(-pi^2 p^2/s) (1/s + 1/(pi^2 p^2)) in a2:
        1.2e-22 and 1.9e-21, the terms p >= 2 adding a relative
        e^(-3 pi^2/s) < 1e-64.
      * the modes past _MODE_K, all with s x^2 > s _MODE_K^2 = 57.8.  As
        erfc(z) <= e^(-z^2)/(z sqrt(pi)) and z erfc(z) >= 0, a dropped
        mode weighs at most e^(-s x^2) / (2 sqrt(pi s)) in a2, and less
        in a0.  The dropped x lie on both sides beyond |x| = _MODE_K, one
        apart, and a side sums to at most its first term plus the
        integral beyond it: in all at most
        e^(-s K^2) (1 + 1/(2 s K)) / sqrt(pi s) = 1.2e-25.

    So the route meets the closed form to roundoff at every generic
    lambda and refuses nothing but a non-generic one.  Its error bounds
    that roundoff, 16 eps times the summed sizes of the terms of a0 and of
    a2, plus _CUT_TOL for what it drops."""
    require_generic(lam)
    x = np.array(vertical_spectrum(frac_part(lam), _MODE_K))
    ax = np.abs(x)
    erfc = np.array([math.erfc(z) for z in ax * math.sqrt(_SPLIT_U)])
    a0_terms = 0.5 * np.sign(x) * erfc
    a2_terms = np.exp(-_SPLIT_U * x * x) \
        / (2.0 * math.sqrt(math.pi * _SPLIT_U)) - ax * erfc
    error = ROUNDOFF * float(np.abs(a0_terms).sum()
                             + np.abs(a2_terms).sum()) + _CUT_TOL
    return FormScalar(float(a0_terms.sum()), float(a2_terms.sum()), error)


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


def _live_powers(q: float) -> int:
    """How many powers q^p, p = 1, 2, ..., have p ln(1/q) <= _POISSON_CUT:
    the leading terms that a damped sum at level q reads."""
    return int(_POISSON_CUT / -math.log(q))


@functools.cache
def _poisson_table():
    """The Poisson route's series folded over its Neville levels, one
    read-only (4, J, B) table built on a process's first Poisson call, not
    at import.

    Level i sums the damped series over its live prefix p <= N_i
    (`_live_powers`) at q_i = 1 - _ABEL_X[i], and the extrapolant to q = 1
    is sum_i c_i S_i, c_i the weights of the interpolating polynomial's
    value at x = 0.  Exchanging the sums, a0 = sum_p w_p sin(p theta) K_p
    with K_p = sum_(i: p <= N_i) c_i q_i^p, and a2 is the cosine series
    with the same K_p.  The route's error estimate, the difference of the
    last two Neville entries, is the same sum with c_i - c'_i, c' the
    weights of levels 0..6 (c'_7 = 0).  The rows are w_p K_p for (sine,
    value), (sine, difference), (cosine, value) and (cosine, difference),
    w_p = -1/(pi p) for the sine and 1/(pi^2 p^2) for the cosine, laid out
    as p = j B + i, 1 <= i <= B, with B = isqrt(N) + 1, J = N // B + 1 and
    N = N_7, the longest prefix, and zero past N.

    Each weight is an exact ratio of integers rounded once.  K_p is
    accumulated level by level over that level's prefix, so no more than
    one level's powers are live at a time."""
    # x_i / x_7 is the integer u_i = 2^(7 - i), so over the first k levels
    # c_i = prod_(j != i) u_j / (u_j - u_i) is a ratio of integers (num, den):
    # for all eight levels, and for the first seven (c'), with c'_7 = 0
    u = [round(x / _ABEL_X[-1]) for x in _ABEL_X]
    eight, seven = ([(math.prod(v for v in u[:k] if v != w),
                      math.prod(v - w for v in u[:k] if v != w))
                     for w in u[:k]] for k in (len(u), len(u) - 1))
    n = _live_powers(1.0 - _ABEL_X[-1])
    b = math.isqrt(n) + 1
    p = np.arange(1.0, (n // b + 1) * b + 1.0)
    table = np.zeros((2, 2, p.size))   # {sine, cosine} x {value, difference}
    for x, (num, den), (num7, den7) in zip(_ABEL_X, eight, seven + [(0, 1)]):
        live = _live_powers(1.0 - x)
        powers = (1.0 - x) ** p[:live]
        # an int / int quotient is the exact ratio rounded once
        table[:, 0, :live] += num / den * powers
        table[:, 1, :live] += (num * den7 - num7 * den) / (den * den7) \
            * powers
    del powers   # the weights' two temporaries take its place
    table[0] *= -1.0 / (np.pi * p)
    table[1] *= 1.0 / (np.pi**2 * p * p)
    table.flags.writeable = False
    return table.reshape(4, -1, b)


def eta_poisson(lam: float, s: SeriesSpec | None = None) -> FormScalar:
    """Poisson-route evaluation: a0 from the sine series (Abel regularized,
    it converges only conditionally), a2 from the cosine series, both
    extrapolated to q = 1 over the Neville levels q = 1 - _ABEL_X, in one
    pass over the folded table of `_poisson_table`.

    Each level sums only its live prefix, the powers up to the series cut
    (`_live_powers`, `_POISSON_CUT`), which changes a0 and a2 by at most
    1e-20; the level nearest q = 1 reads the most terms and sizes the
    series.

    With p = j B + i as in the table, e^(i p theta) = Z_j z_i, where
    Z_j = e^(i jB theta) and z_i = e^(i i theta), so a row T sums
    sum_j Z_j sum_i T_(ji) z_i, the baby-step/giant-step evaluation of
    Paterson & Stockmeyer (SIAM J. Comput. 2, 1973): B + J angles per
    lambda, not one per term.  Each angle is formed as 2 pi p {lambda}, at
    p = i and at p = jB; lambda has period 1 and x - floor(x) is exact, so
    a large |lambda| loses no digits.  Both sums are numpy's own einsum
    loops, not a BLAS call: the last bits of a BLAS dot of more than 10^4
    terms follow its thread count.

    The route refuses with ConvergenceError when its own error estimate,
    the Neville difference of either extrapolation, exceeds the series
    tolerance, and otherwise reports that tolerance as its error."""
    s = s or SeriesSpec()
    require_generic(lam)
    table = _poisson_table()
    _, blocks, b = table.shape
    anchors = np.concatenate([np.arange(1.0, b + 1.0),
                              b * np.arange(float(blocks))])
    theta = 2.0 * np.pi * anchors * frac_part(lam)
    rotations = np.stack([np.cos(theta), np.sin(theta)])
    inner = np.einsum("kji,ci->kcj", table, rotations[:, :b])
    sine, sine_diff, cosine, cosine_diff = np.einsum(
        "kcj,dj->kcd", inner, rotations[:, b:]).tolist()
    # Im(Z z) = Re Z Im z + Im Z Re z, Re(Z z) = Re Z Re z - Im Z Im z
    a0, d0 = (r[1][0] + r[0][1] for r in (sine, sine_diff))
    a2, d2 = (r[0][0] - r[1][1] for r in (cosine, cosine_diff))
    diff = max(abs(d0), abs(d2))
    if not diff <= s.tol:
        raise ConvergenceError(
            f"poisson route at lambda = {float(lam)!r} (distance "
            f"{dist_to_integers(lam):.3e} to the integers) is unresolved: "
            f"the Neville extrapolation differs by {diff:.3e}, above "
            f"the series tolerance {s.tol:.3e}")
    return FormScalar(a0, a2, s.tol)


# ---------------------------------------------------------------------------
# Route 3: Bernoulli closed form


def eta_bernoulli(lam: float) -> FormScalar:
    """Exact closed form: a0 = {lambda} - 1/2, a2 = {lambda}^2 - {lambda}
    + 1/6, fractional parts in (0, 1)."""
    require_generic(lam)
    f = frac_part(lam)
    return FormScalar(f - 0.5, f * f - f + 1.0 / 6.0, 0.0)


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
        return eta_mode_sum(lam)
    if route == "poisson":
        return eta_poisson(lam, series)
    if route == "bernoulli":
        return eta_bernoulli(lam)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def eta_integral(data: InstantonData, route: str = "bernoulli",
                 series: SeriesSpec | None = None):
    """(value, error) of (1/2 pi i) oint eta-hat over the boundary sphere,
    trace-summed over channels, including the degree-2 coupling to the
    channel fluxes.

    Per channel: -a0 * chern + a2 / 2, from the fluxes oint R = -2 pi and
    (1/2 pi i) oint F^W = chern, so the error is the sum of the routes'
    errors weighted by |chern| + 1/2."""
    lambdas, cherns, _ = boundary_data(data)
    total = error = 0.0
    for lam_red, chern in zip(lambdas, cherns):
        form = eta_form(lam_red, route, series)
        total += -form.a0 * chern + 0.5 * form.a2
        error += (abs(chern) + 0.5) * form.error
    return total, error


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
                         form.error))
    return rows

