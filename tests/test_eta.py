"""Boundary eta-form: three routes, series identities, and integrals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnindex import eta
from tnindex.errors import ConvergenceError, GenericityError, TNIndexError
from tnindex.eta import (_ABEL_CUT_PREFACTOR, _ABEL_X, _CUT_TOL, _MODE_K,
                         _POISSON_CUT, _SPLIT_U, ROUTES, FormScalar,
                         SeriesSpec, _live_powers, eta_bernoulli, eta_form,
                         eta_integral, eta_mode_sum, eta_poisson,
                         poisson_check, vertical_spectrum)
from tnindex.gauge import InstantonChannel, InstantonData, frac_part

GENERIC = st.floats(min_value=0.02, max_value=0.98).filter(
    lambda x: min(x, 1.0 - x) > 0.02)


# ---------------------------------------------------------------------------
# Vertical spectrum


def test_spectrum_small_window():
    assert vertical_spectrum(0.25, 1) == [-1.25, -0.25, 0.75]


def test_spectrum_minimum():
    spec = vertical_spectrum(0.25, 50)
    assert min(abs(x) for x in spec) == pytest.approx(0.25)


def test_spectrum_shift_invariant_as_set():
    a = vertical_spectrum(0.3, 100)
    b = vertical_spectrum(1.3, 101)
    assert set(np.round(a, 12)) <= set(np.round(b, 12))


def test_spectrum_rejects_integer():
    with pytest.raises(GenericityError):
        vertical_spectrum(3.0, 10)


# ---------------------------------------------------------------------------
# Closed form route


def test_bernoulli_values():
    half = eta_bernoulli(0.5)
    assert half.a0 == pytest.approx(0.0)
    assert half.a2 == pytest.approx(-1.0 / 12.0)
    quarter = eta_bernoulli(0.25)
    assert quarter.a0 == pytest.approx(-0.25)
    assert quarter.a2 == pytest.approx(-1.0 / 48.0)
    assert eta_bernoulli(1.25) == eta_bernoulli(0.25)


@given(lam=GENERIC)
@settings(max_examples=30, deadline=None)
def test_bernoulli_reflection(lam):
    a = eta_bernoulli(lam)
    b = eta_bernoulli(1.0 - lam)
    assert a.a0 + b.a0 == pytest.approx(0.0, abs=1e-12)
    assert a.a2 == pytest.approx(b.a2, abs=1e-12)


# ---------------------------------------------------------------------------
# Mode sum route


def test_mode_sum_odd_spectrum_zero():
    assert abs(eta_mode_sum(0.5).a0) < 1e-8


def test_mode_sum_matches_bernoulli():
    a = eta_mode_sum(0.25)
    b = eta_bernoulli(0.25)
    assert a.a0 == pytest.approx(b.a0, abs=1e-6)
    assert a.a2 == pytest.approx(b.a2, abs=1e-6)


def test_mode_sum_reflection():
    assert eta_mode_sum(0.3).a0 == pytest.approx(-eta_mode_sum(0.7).a0,
                                                 abs=1e-8)


def reference_u_grid(u_min, u_max, n_u):
    """Uniform grid in v = log u with trapezoid weights for du/(2 sqrt u),
    as the mode sum integrated over u before its modes were integrated in
    closed form: (u, w)."""
    v = np.linspace(np.log(u_min), np.log(u_max), n_u)
    h = v[1] - v[0]
    u = np.exp(v)
    w = np.full(n_u, h)
    w[0] = w[-1] = 0.5 * h
    return u, w * np.sqrt(u) / 2.0


def reference_mode_sum(lam, grid, k_cutoff):
    """The full-grid mode sum in complex arithmetic on the u grid
    (u_min, u_max, n_u), |k| <= k_cutoff, the 2-form direction as the
    nilpotent shift x -> x - i eps/(4u); eta-hat is real, so the
    imaginary parts must vanish to within the series tolerance."""
    u, w = reference_u_grid(*grid)
    k = np.arange(-k_cutoff, k_cutoff + 1, dtype=float)
    x = (k - lam)[None, :]
    uu = u[:, None]
    nil = np.broadcast_to(-0.25j / uu, (u.size, k.size))
    e_val = np.exp(-uu * x * x)
    term_val = x * e_val
    term_nil = nil * e_val + x * (-uu * 2.0 * x * nil) * e_val
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    a0_c = inv_sqrt_pi * np.dot(term_val.sum(axis=1), w)
    a2_c = inv_sqrt_pi * np.dot(term_nil.sum(axis=1), w) * 2.0j
    tol = SeriesSpec().tol
    assert abs(np.imag(a0_c)) <= tol and abs(np.imag(a2_c)) <= tol
    return FormScalar(float(np.real(a0_c)), float(np.real(a2_c)), tol)


def seeded_lambdas(n, seed):
    """n holonomies of both signs, up to three periods from 0, at
    distance 0.05..0.5 from the integers."""
    rng = np.random.default_rng(seed)
    dist = rng.uniform(0.05, 0.5, n)
    return [float(m + sign * d) for m, sign, d in zip(
        rng.integers(-3, 4, n), rng.choice([-1.0, 1.0], n), dist)]


# (u grid, K): the u grids the mode sum used to integrate on, (u_min,
# u_max, n_u), and a mode window that holds every mode they reached at
# lambda within three periods of 0
REFERENCE_GRIDS = [((1e-4, 1e4, 601), 1500), ((5e-4, 2e4, 401), 400)]


@pytest.mark.parametrize("grid, k_cutoff", REFERENCE_GRIDS,
                         ids=["default", "small"])
def test_mode_sum_matches_full_grid_reference(grid, k_cutoff):
    lams = seeded_lambdas(8, 20261018)
    assert any(abs(lam) > 1.0 for lam in lams)
    assert any(lam < 0.0 for lam in lams)
    for lam in lams:
        got = eta_mode_sum(lam)
        ref = reference_mode_sum(lam, grid, k_cutoff)
        assert abs(got.a0 - ref.a0) <= 1e-13, lam
        assert abs(got.a2 - ref.a2) <= 1e-13, lam


def test_mode_sum_drops_below_the_cut_tolerance():
    """The documented bounds on what the mode sum drops, the heat integral
    below the split point (summed over p = 1..3 of its Poisson sum) and the
    modes past _MODE_K, are each at most _CUT_TOL in floating point."""
    s, k = _SPLIT_U, _MODE_K
    p = np.arange(1.0, 4.0)
    split = np.exp(-np.pi**2 * p * p / s)
    split_a0 = np.sum(split / (np.pi * p))
    split_a2 = np.sum(split * (1.0 / s + 1.0 / (np.pi**2 * p * p)))
    mode_tail = np.exp(-s * k * k) * (1.0 + 1.0 / (2.0 * s * k)) \
        / np.sqrt(np.pi * s)
    assert s * k * k > 57.0
    assert max(split_a0, split_a2, mode_tail) <= _CUT_TOL


NEAR_INTEGER = st.tuples(
    st.integers(min_value=-3, max_value=3), st.sampled_from([-1.0, 1.0]),
    st.floats(np.log(1.01e-6), np.log(0.5)).map(np.exp)).map(
        lambda t: float(t[0] + t[1] * t[2]))


@given(lam=NEAR_INTEGER)
@settings(max_examples=60, deadline=None)
@example(lam=0.999)
@example(lam=-2.0 + 2e-6)
@example(lam=3.0 - 1.01e-6)
def test_mode_sum_meets_bernoulli_near_integers(lam):
    """lambda = n +- d with d log-uniform down to 1e-6: the mode sum meets
    Bernoulli to roundoff wherever lambda is generic, and Poisson meets it
    within the series tolerance or refuses with a ConvergenceError.  Each
    route's miss is within the error it reports, and the mode sum's error
    is a roundoff bound."""
    ref = eta_bernoulli(lam)
    assert ref.error == 0.0
    got = eta_mode_sum(lam)
    assert abs(got.a0 - ref.a0) <= 1e-14, lam
    assert abs(got.a2 - ref.a2) <= 1e-14, lam
    assert max(abs(got.a0 - ref.a0), abs(got.a2 - ref.a2)) <= got.error, lam
    assert got.error <= 1e-13, lam
    spec = SeriesSpec()
    try:
        got = eta_poisson(lam, spec)
    except ConvergenceError:
        return
    assert abs(got.a0 - ref.a0) <= spec.tol, lam
    assert abs(got.a2 - ref.a2) <= spec.tol, lam
    assert max(abs(got.a0 - ref.a0), abs(got.a2 - ref.a2)) <= got.error, lam


# (lambda, mode_sum a0, poisson a0, poisson a2) at the README lambdas as
# the complex mode sum on its former u grid and the unwindowed q**p
# computed them
PINNED_ROWS = [
    (0.1, "-0.40000000000000757", "-0.3999999999998811",
     "0.07666666666666422"),
    (0.25, "-0.25000000000000416", "-0.25", "-0.020833333333333336"),
    (0.4, "-0.10000000000000023", "-0.09999999999999984",
     "-0.0733333333333333"),
    (0.6, "0.10000000000000019", "0.10000000000000073",
     "-0.07333333333333342"),
    (0.9, "0.4000000000000079", "0.3999999999998838",
     "0.07666666666666416")]

# Poisson's (a0, a2) at the same lambdas from its blocked level sums (p =
# j B + i, angles and powers at p = i and p = j B) over each level's live
# prefix: the series and its cut are those of the per-term sums above, so
# the rows move only by rounding, at most 1.9e-15, within POISSON_ROUNDING
POISSON_CUT_ROWS = {
    0.1: ("-0.399999999999881", "0.07666666666666401"),
    0.25: ("-0.25000000000000056", "-0.020833333333333304"),
    0.4: ("-0.09999999999999998", "-0.07333333333333326"),
    0.6: ("0.1000000000000021", "-0.07333333333333328"),
    0.9: ("0.39999999999988184", "0.07666666666666412")}
POISSON_ROUNDING = 2e-15

# the mode sum's (a0, a2) at the same lambdas from the closed-form u
# integral of each mode: what it drops weighs at most 1e-20, so the rows
# meet Bernoulli to within MODE_ROUNDING, where the u grid above missed
# by up to 7.6e-15
MODE_ROWS = {0.1: ("-0.4", "0.07666666666666655"),
             0.25: ("-0.2500000000000001", "-0.02083333333333376"),
             0.4: ("-0.10000000000000006", "-0.07333333333333358"),
             0.6: ("0.10000000000000005", "-0.07333333333333358"),
             0.9: ("0.4", "0.07666666666666666")}
MODE_ROUNDING = 1e-15


@pytest.mark.parametrize("lam, mode_a0, poisson_a0, poisson_a2", PINNED_ROWS)
def test_rows_keep_their_bits(lam, mode_a0, poisson_a0, poisson_a2):
    got_mode, ref = eta_mode_sum(lam), eta_bernoulli(lam)
    assert (repr(got_mode.a0), repr(got_mode.a2)) == MODE_ROWS[lam]
    assert abs(got_mode.a0 - ref.a0) <= MODE_ROUNDING
    assert abs(got_mode.a2 - ref.a2) <= MODE_ROUNDING
    # no farther from Bernoulli than the u grid was
    assert abs(got_mode.a0 - ref.a0) <= abs(float(mode_a0) - ref.a0)
    got = eta_poisson(lam)
    assert (repr(got.a0), repr(got.a2)) == POISSON_CUT_ROWS[lam]
    assert abs(got.a0 - float(poisson_a0)) <= POISSON_ROUNDING
    assert abs(got.a2 - float(poisson_a2)) <= POISSON_ROUNDING


@pytest.mark.parametrize("lam", [1600.3, 2000.3, -1800.45, 1e6 + 0.3])
def test_mode_sum_reads_its_window_at_any_lambda(lam):
    """The route sums its modes around lambda mod 1, so a holonomy far
    from 0 meets Bernoulli to roundoff."""
    got, ref = eta_mode_sum(lam), eta_bernoulli(lam)
    assert abs(got.a0 - ref.a0) <= 6e-15, lam
    assert abs(got.a2 - ref.a2) <= 6e-15, lam


@pytest.mark.parametrize("lam", [1600.3, 2000.3, -1800.45, 1e6 + 0.3])
def test_poisson_reads_any_lambda(lam):
    """The route forms its angles from lambda mod 1, so a large |lambda|
    loses no digits to 2 pi p lambda and meets Bernoulli to roundoff."""
    got, ref = eta_poisson(lam), eta_bernoulli(lam)
    assert abs(got.a0 - ref.a0) <= 6e-15, lam
    assert abs(got.a2 - ref.a2) <= 6e-15, lam


@given(n=st.integers(min_value=-10**6, max_value=10**6),
       f=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_series_routes_meet_bernoulli_far_from_zero(n, f):
    """lambda = n + f with |n| up to 1e6: each series route lands within
    the series tolerance of Bernoulli or raises a typed error."""
    lam, spec = n + f, SeriesSpec()
    ref = eta_bernoulli(lam)
    for route in (eta_mode_sum, lambda lam: eta_poisson(lam, spec)):
        try:
            got = route(lam)
        except TNIndexError:
            continue
        assert abs(got.a0 - ref.a0) <= spec.tol, (route, lam)
        assert abs(got.a2 - ref.a2) <= spec.tol, (route, lam)


# ---------------------------------------------------------------------------
# Poisson route


def test_poisson_zero_at_half():
    assert eta_poisson(0.5).a0 == pytest.approx(0.0, abs=1e-14)


def test_poisson_quarter():
    assert eta_poisson(0.25).a0 == pytest.approx(-0.25, abs=1e-9)


def test_live_powers_are_the_prefix_below_the_cut(monkeypatch):
    """Each level sums exactly the powers with p ln(1/q) <= T_P, the level
    nearest q = 1 the most of them.  The weight table holds exactly that
    level's prefix, laid out as p = j B + i, and zeros past it; each level
    reads the table's full blocks and one partial block, its prefix."""
    p = np.arange(1, 30_001, dtype=float)
    live = [_live_powers(1.0 - x) for x in _ABEL_X]
    for x, n in zip(_ABEL_X, live):
        assert np.array_equal(p * -np.log(1.0 - x) <= _POISSON_CUT,
                              p <= n)
    assert live[0] == 184 and live[-1] == 27_109 == max(live)
    weights = eta._poisson_weights()
    _, blocks, b = weights.shape
    assert (b, blocks) == (math.isqrt(live[-1]) + 1, live[-1] // b + 1)
    table, n = weights.reshape(2, -1), live[-1]
    assert np.array_equal(table[:, :n], [-1.0 / (np.pi * p[:n]),
                                         1.0 / (np.pi**2 * p[:n] * p[:n])])
    assert table.shape[1] >= n and np.all(table[:, n:] == 0.0)

    # label each weight with its p and record the labels each level reads
    labels = np.broadcast_to(np.arange(1.0, blocks * b + 1.0).reshape(
        blocks, b), weights.shape).copy()
    read, einsum = [], np.einsum

    def spy(spec, *operands, **kwargs):
        if np.shares_memory(operands[0], labels):
            read.append(operands[0][0].ravel())
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(eta, "_poisson_weights", lambda: labels)
    monkeypatch.setattr(np, "einsum", spy)
    eta._level_sums(0.3)
    assert len(read) == 2 * len(live)
    for level, n in enumerate(live):
        assert np.array_equal(np.concatenate(read[2 * level:2 * level + 2]),
                              np.arange(1.0, n + 1.0)), level


def reference_level_sums(lam):
    """The damped sums at each Neville level as the route formed them term
    by term before it was blocked: sin and cos of 2 pi p {lambda} for every
    p, q**p, and numpy's pairwise sum over the level's live prefix."""
    p = np.arange(1, _live_powers(1.0 - _ABEL_X[-1]) + 1, dtype=float)
    theta = 2.0 * np.pi * p * frac_part(lam)
    terms = np.stack([np.sin(theta) / (-np.pi * p),
                      np.cos(theta) / (np.pi**2 * p * p)])
    levels = []
    for x in _ABEL_X:
        q = 1.0 - x
        n = _live_powers(q)
        levels.append(tuple((q ** p[:n] * terms[:, :n]).sum(axis=1)))
    return levels


def reference_neville(levels):
    """The Neville recurrence on a float64 array, as the route ran it."""
    xs, tableau = _ABEL_X, np.array(levels)
    for m in range(1, xs.size):
        for i in range(xs.size - 1, m - 1, -1):
            tableau[i] = tableau[i] + (tableau[i] - tableau[i - 1]) \
                * xs[i] / (xs[i - m] - xs[i])
    return tableau[-1], np.abs(tableau[-1] - tableau[-2])


def reference_draws(n, seed):
    """n holonomies uniform in [-50, 50], then n at m +- d with m an
    integer in [-50, 50] and d log-uniform in [1e-6, 0.5]."""
    rng = np.random.default_rng(seed)
    near = rng.integers(-50, 51, n) + rng.choice([-1.0, 1.0], n) \
        * np.exp(rng.uniform(np.log(1e-6), np.log(0.5), n))
    return [float(lam) for lam in np.concatenate(
        [rng.uniform(-50.0, 50.0, n), near])]


# how far the blocked route may move a level sum or a0, a2 from the per-term
# reference: each rounds its angles 2 pi p {lambda}, up to 1.7e5 rad, its
# own way
BLOCKED_ROUNDING = 2e-14


def test_blocked_route_matches_the_per_term_reference(monkeypatch):
    """Over 400 draws the blocked level sums and the extrapolated (a0, a2)
    meet the per-term reference within BLOCKED_ROUNDING wherever the route
    accepts, and both refuse exactly the same draws.  Near an integer, where
    both refuse, the level sums move by up to about 7e-14: the angle
    rounding adds up in step there, and no reported value reads them.  The
    Neville recurrence on Python floats keeps the array recurrence's bits.

    At the default cut a level's last, partial block weighs below 1e-20.
    At a short cut T_P = 5 it weighs about e^-5, and the first level is
    that block alone, so there the sums show that the block is read."""
    tol = SeriesSpec().tol
    refused = []
    for lam in reference_draws(200, 20261018):
        got, ref = eta._level_sums(lam), reference_level_sums(lam)
        values, diffs = reference_neville(ref)
        assert eta.abel_extrapolate(ref) == (values.tolist(), diffs.tolist())
        try:
            form = eta_poisson(lam)
        except ConvergenceError:
            refused.append(lam)
            assert diffs.max() > tol, lam
            continue
        assert diffs.max() <= tol, lam
        assert np.max(np.abs(np.subtract(got, ref))) <= BLOCKED_ROUNDING, lam
        assert abs(form.a0 - values[0]) <= BLOCKED_ROUNDING, lam
        assert abs(form.a2 - values[1]) <= BLOCKED_ROUNDING, lam
    assert 100 < len(refused) < 200

    eta._poisson_weights()   # sized at the default cut, which holds T_P = 5
    monkeypatch.setattr(eta, "_POISSON_CUT", 5.0)
    assert _live_powers(1.0 - _ABEL_X[0]) < eta._poisson_weights().shape[2]
    for lam in seeded_lambdas(20, 7):
        got, ref = eta._level_sums(lam), reference_level_sums(lam)
        assert np.max(np.abs(np.subtract(got, ref))) <= BLOCKED_ROUNDING, lam


@pytest.mark.parametrize("p_cutoff", [20, 20000, 200000])
def test_damped_powers_live_prefix_then_zero(p_cutoff):
    """Over any run of powers p = 1..p_cutoff the live ones form a prefix:
    damping the powers past `_live_powers(q)` to zero is exactly the cut
    p ln(1/q) <= T_P, so summing the prefix alone drops nothing live."""
    p = np.arange(1, p_cutoff + 1, dtype=float)
    for x in _ABEL_X:
        q = 1.0 - x
        n = _live_powers(q)
        damped = np.where(np.arange(p.size) < n, q ** p, 0.0)
        live = p <= _POISSON_CUT / -np.log(q)
        assert np.array_equal(damped[live], q ** p[live])
        assert np.all(damped[~live] == 0.0)
        assert np.sum(q ** p[:n]) == np.sum(q ** p[live])


def test_damped_powers_drop_below_the_cut_bound():
    """At each level the dropped powers weigh at most e^-T_P / (pi (1 - q)),
    and through the Neville weights at most 1e-20 in all."""
    p = np.arange(1, 400_001, dtype=float)
    for x in _ABEL_X:
        q = 1.0 - x
        dropped = p[_live_powers(q):]
        assert np.sum(q ** dropped / (np.pi * dropped)) \
            <= np.exp(-_POISSON_CUT) / (np.pi * x)
    assert np.exp(-_POISSON_CUT) * _ABEL_CUT_PREFACTOR <= 1e-20


@pytest.mark.parametrize("lam, series", [
    (0.3, SeriesSpec(tol=1e-14)), (0.01, SeriesSpec()),
    (1e-5, SeriesSpec()), (-2.0 + 2e-6, SeriesSpec())])
def test_poisson_refuses_beyond_its_estimate(lam, series):
    """A tolerance below what the extrapolation resolves (its Neville
    difference at lambda 0.3 is 5.7e-14) or a lambda too near an integer
    for the Neville levels (1e-5 missed by 0.48) is refused instead of
    reported within the series tolerance."""
    with pytest.raises(ConvergenceError, match="poisson route") as exc:
        eta_poisson(lam, series)
    assert repr(lam) in str(exc.value)


def test_poisson_accepts_generic_lambdas():
    """At the defaults the route's estimate stays below the series
    tolerance for dist(lambda, Z) in [0.05, 0.5], both signs, three
    periods from 0, and the route meets it."""
    for lam in seeded_lambdas(24, 91) + [0.05, -2.95, 3.05]:
        got, ref = eta_poisson(lam), eta_bernoulli(lam)
        assert abs(got.a0 - ref.a0) <= 1e-8, lam
        assert abs(got.a2 - ref.a2) <= 1e-8, lam


def test_poisson_check_examples():
    lhs, rhs = poisson_check(0.0, 0.05)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)
    lhs, rhs = poisson_check(0.25, 0.02)
    assert abs(lhs - rhs) < 1e-10
    lhs1, rhs1 = poisson_check(1.25, 0.02)
    assert lhs1 == pytest.approx(lhs, abs=1e-12)
    assert rhs1 == pytest.approx(rhs, abs=1e-12)
    with pytest.raises(ValueError, match="s must be positive"):
        poisson_check(0.25, 0.0)


# ---------------------------------------------------------------------------
# Route cross-validation


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_routes_agree(lam):
    ref = eta_bernoulli(lam)
    for route in ("mode_sum", "poisson"):
        got = eta_form(lam, route)
        assert got.a0 == pytest.approx(ref.a0, abs=1e-6)
        assert got.a2 == pytest.approx(ref.a2, abs=1e-6)


def test_eta_form_refuses_an_unknown_route():
    with pytest.raises(ValueError, match="expected one of") as info:
        eta_form(0.3, "nope")
    assert str(ROUTES) in str(info.value)


@pytest.mark.parametrize("route", ROUTES)
def test_periodicity(route):
    a = eta_form(0.35, route)
    b = eta_form(2.35, route)
    assert a.a0 == pytest.approx(b.a0, abs=1e-9)
    assert a.a2 == pytest.approx(b.a2, abs=1e-9)


# ---------------------------------------------------------------------------
# Integrated eta over the boundary sphere


def test_integral_quarter_channel():
    data = InstantonData([InstantonChannel(0.25, 0.0, 0)])
    assert eta_integral(data) == (pytest.approx(-1.0 / 96.0), 0.0)


def test_integral_half_channel_with_flux():
    data = InstantonData([InstantonChannel(0.5, 0.0, 3)])
    assert eta_integral(data)[0] == pytest.approx(-1.0 / 24.0)


def test_integral_two_channels():
    data = InstantonData([InstantonChannel(0.25, 0.0, 1),
                          InstantonChannel(0.75, 0.0, -1)])
    assert eta_integral(data)[0] == pytest.approx(0.5 - 1.0 / 48.0)


def test_integral_additive():
    a = InstantonData([InstantonChannel(0.25, 0.0, 1)])
    b = InstantonData([InstantonChannel(0.6, 0.0, -2)])
    total, _ = eta_integral(InstantonData(a.channels + b.channels))
    assert total == pytest.approx(eta_integral(a)[0] + eta_integral(b)[0])


@given(lam=GENERIC, shift=st.integers(min_value=-3, max_value=3),
       chern=st.integers(min_value=-3, max_value=3))
@settings(max_examples=25, deadline=None)
def test_integral_holonomy_shift_invariant(lam, shift, chern):
    """The integral is periodic in the holonomy, and each route's integral
    lands within its error of the Bernoulli one, or Poisson refuses."""
    a = InstantonData([InstantonChannel(lam, 0.0, chern)])
    b = InstantonData([InstantonChannel(lam + shift, 0.0, chern)])
    exact, _ = eta_integral(b)
    assert eta_integral(a)[0] == pytest.approx(exact, abs=1e-12)
    for route in ROUTES:
        try:
            value, error = eta_integral(b, route)
        except ConvergenceError:
            assert route == "poisson"
            continue
        assert abs(value - exact) <= error, route


# ---------------------------------------------------------------------------
# Series spec


def test_series_spec_validation():
    for tol in (0.0, -1e-8, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SeriesSpec(tol=tol)
