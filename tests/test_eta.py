"""Boundary eta-form: three routes, series identities, and integrals."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnindex import eta
from tnindex.errors import ConvergenceError, GenericityError
from tnindex.eta import (_ABEL_CUT_PREFACTOR, _ABEL_X, ROUTES, FormScalar,
                         SeriesSpec, _damped_powers, _mode_blocks,
                         _mode_cut_prefactors, _series_cut,
                         _truncation_bound, _u_grid, eta_bernoulli,
                         eta_form, eta_integral, eta_mode_sum, eta_poisson,
                         poisson_check, vertical_spectrum)
from tnindex.gauge import InstantonChannel, InstantonData

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


def full_grid_terms(lam, s):
    """Every term of the mode sum on the full u x k grid, as the mode sum
    evaluated them before it was blocked: (u, term_val, term_nil)."""
    u, _ = _u_grid(s)
    k = np.arange(-s.k_cutoff, s.k_cutoff + 1, dtype=float)
    x = (k - lam)[None, :]
    uu = u[:, None]
    nil = np.broadcast_to(-0.25j / uu, (u.size, k.size))
    val_q = -uu * x * x
    nil_q = -uu * 2.0 * x * nil
    e_val = np.exp(val_q)
    return u, x * e_val, nil * e_val + x * nil_q * e_val


def reference_mode_sum(lam, s):
    """The full-grid mode sum in complex arithmetic, as it was before the
    route was blocked and made real (tail check aside); eta-hat is real, so
    the imaginary parts must vanish to within the series tolerance."""
    u, term_val, term_nil = full_grid_terms(lam, s)
    _, w = _u_grid(s)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    a0_c = inv_sqrt_pi * np.dot(term_val.sum(axis=1), w)
    a2_c = inv_sqrt_pi * np.dot(term_nil.sum(axis=1), w) * 2.0j
    assert abs(np.imag(a0_c)) <= s.tol and abs(np.imag(a2_c)) <= s.tol
    return FormScalar(float(np.real(a0_c)), float(np.real(a2_c)))


def seeded_lambdas(n, seed):
    """n holonomies of both signs, up to three periods from 0, at
    distance 0.05..0.5 from the integers."""
    rng = np.random.default_rng(seed)
    dist = rng.uniform(0.05, 0.5, n)
    return [float(m + sign * d) for m, sign, d in zip(
        rng.integers(-3, 4, n), rng.choice([-1.0, 1.0], n), dist)]


MODE_SUM_SPECS = [SeriesSpec(),
                  SeriesSpec(k_cutoff=400, n_u=401, u_min=5e-4, u_max=2e4)]


@pytest.mark.parametrize("spec", MODE_SUM_SPECS, ids=["default", "small"])
def test_mode_sum_matches_full_grid_reference(spec):
    lams = seeded_lambdas(8, 20261018)
    assert any(abs(lam) > 1.0 for lam in lams)
    assert any(lam < 0.0 for lam in lams)
    for lam in lams:
        got, ref = eta_mode_sum(lam, spec), reference_mode_sum(lam, spec)
        assert abs(got.a0 - ref.a0) <= 1e-13, lam
        assert abs(got.a2 - ref.a2) <= 1e-13, lam


@pytest.mark.parametrize("spec", MODE_SUM_SPECS + [SeriesSpec(u_min=1e-8)],
                         ids=["default", "small", "u_min_1e-8"])
def test_mode_blocks_drop_below_the_cut_bound(spec):
    """The terms of the full u x k grid outside the block windows change a0
    and a2 by at most the documented bound, which is at most 1e-20."""
    u, w = _u_grid(spec)
    t = _series_cut(u, w)
    bound0, bound2 = np.exp(-t) * np.array(_mode_cut_prefactors(u, w)(t))
    assert max(bound0, bound2) <= 1e-20
    for lam in seeded_lambdas(3, 7) + [0.5, -0.05]:
        _, term_val, term_nil = full_grid_terms(lam, spec)
        x = np.arange(-spec.k_cutoff, spec.k_cutoff + 1, dtype=float) - lam
        covered = np.zeros(term_val.shape, dtype=bool)
        next_row = 0
        for rows, cols in _mode_blocks(u, x, t):
            assert rows.start == next_row
            next_row = min(rows.stop, u.size)
            covered[rows, cols] = True
        assert next_row == u.size
        dropped_val = np.where(covered, 0.0, term_val).sum(axis=1)
        dropped_nil = np.where(covered, 0.0, term_nil.imag).sum(axis=1)
        assert abs(np.dot(dropped_val, w)) / np.sqrt(np.pi) <= bound0
        assert 2.0 * abs(np.dot(dropped_nil, w)) / np.sqrt(np.pi) <= bound2
        if spec == SeriesSpec():
            assert covered.sum() < 120_000


def test_mode_sum_memory_peak():
    eta_mode_sum(0.3)
    tracemalloc.start()
    try:
        eta_mode_sum(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("n_u", [3, 21])
def test_mode_sum_refuses_unresolved_u_grid(n_u):
    with pytest.raises(ConvergenceError, match="half grid"):
        eta_mode_sum(0.3, SeriesSpec(n_u=n_u))


def test_mode_sum_tail_check_comes_first():
    # near an integer the u-integral tail, not the half grid, is reported
    with pytest.raises(ConvergenceError, match="u-integral tail"):
        eta_mode_sum(0.999, SeriesSpec(n_u=21))


def test_mode_sum_refuses_after_one_block(monkeypatch):
    """The tail check runs on the block of the largest u before any other
    block is evaluated; a call that passes it evaluates every block."""
    blocks = []

    def counted(u, x, rows, cols):
        blocks.append(rows)
        return block_sums(u, x, rows, cols)

    block_sums = eta._block_sums
    monkeypatch.setattr(eta, "_block_sums", counted)
    with pytest.raises(ConvergenceError, match="u-integral tail"):
        eta_mode_sum(0.999)
    u, _ = _u_grid(SeriesSpec())
    assert len(blocks) == 1 and blocks[0].stop >= u.size
    blocks.clear()
    eta_mode_sum(0.3)
    assert len(blocks) == -(-u.size // eta._U_BLOCK)
    assert blocks[0].stop >= u.size


# (lambda, mode_sum a0, poisson a0, poisson a2) at the README lambdas as
# the complex mode sum and the unwindowed q**p computed them
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

# the mode sum's a0 at the same lambdas as it computes them with the series
# cut: the dropped terms weigh at most 1e-20, so the cut moves a0 from the
# uncut value above only by rounding, well within CUT_ROUNDING
MODE_CUT_A0 = {0.1: "-0.40000000000000746", 0.25: "-0.25000000000000344",
               0.4: "-0.10000000000000019", 0.6: "0.1",
               0.9: "0.4000000000000074"}
CUT_ROUNDING = 1e-15


@pytest.mark.parametrize("lam, mode_a0, poisson_a0, poisson_a2", PINNED_ROWS)
def test_rows_keep_their_bits(lam, mode_a0, poisson_a0, poisson_a2):
    got_mode = eta_mode_sum(lam).a0
    assert repr(got_mode) == MODE_CUT_A0[lam]
    assert abs(got_mode - float(mode_a0)) <= CUT_ROUNDING
    got = eta_poisson(lam)
    assert (repr(got.a0), repr(got.a2)) == (poisson_a0, poisson_a2)


# ---------------------------------------------------------------------------
# Poisson route


def test_poisson_zero_at_half():
    assert eta_poisson(0.5).a0 == pytest.approx(0.0, abs=1e-14)


def test_poisson_quarter():
    assert eta_poisson(0.25).a0 == pytest.approx(-0.25, abs=1e-9)


SERIES_CUT = _series_cut(*_u_grid(SeriesSpec()))


@pytest.mark.parametrize("p_cutoff", [20, 20000, 200000])
def test_damped_powers_live_prefix_then_zero(p_cutoff):
    p = np.arange(1, p_cutoff + 1, dtype=float)
    for x in _ABEL_X:
        q = 1.0 - x
        got = _damped_powers(q, p, SERIES_CUT)
        live = p <= SERIES_CUT / -np.log(q)
        assert np.array_equal(got[live], q ** p[live])
        assert np.all(got[~live] == 0.0)


def test_damped_powers_drop_below_the_cut_bound():
    """At each level the dropped powers weigh at most e^-T / (pi (1 - q)),
    and through the Neville weights at most 1e-20 in all."""
    p = np.arange(1, 400_001, dtype=float)
    for x in _ABEL_X:
        q = 1.0 - x
        dropped = p[_damped_powers(q, p, SERIES_CUT) == 0.0]
        assert dropped.size > 0
        assert np.sum(q ** dropped / (np.pi * dropped)) \
            <= np.exp(-SERIES_CUT) / (np.pi * x)
    assert np.exp(-SERIES_CUT) * _ABEL_CUT_PREFACTOR <= 1e-20


@pytest.mark.parametrize("p_cutoff", [20, 200, 5000, 20000])
def test_truncation_bound_covers_the_tail(p_cutoff):
    """The sine and cosine tails past p_cutoff at the level nearest q = 1,
    summed to 4e5 terms (q^p underflows before that), stay below the
    summation-by-parts bound, on both sides of an integer."""
    q = 1.0 - _ABEL_X[-1]
    p = np.arange(p_cutoff + 1, 400_001, dtype=float)
    damped = q ** p
    for lam in [0.5, 0.3, -0.3, 0.05, 2.0 + 1e-5, 3.0 - 1e-5, 1.0 - 1e-3]:
        sine = np.sum(damped * np.sin(2.0 * np.pi * p * lam) / (np.pi * p))
        cosine = np.sum(damped * np.cos(2.0 * np.pi * p * lam)
                        / (np.pi * p) ** 2)
        assert max(abs(sine), abs(cosine)) <= \
            _truncation_bound(lam, p_cutoff), lam


def test_poisson_accepts_a_short_series_its_bound_resolves():
    """At lambda 0.3 the bound past p_cutoff 5000 is 4.5e-9, below the
    series tolerance, and the route meets it."""
    got, ref = eta_poisson(0.3, SeriesSpec(p_cutoff=5000)), eta_bernoulli(0.3)
    assert abs(got.a0 - ref.a0) <= 1e-8
    assert abs(got.a2 - ref.a2) <= 1e-8


@pytest.mark.parametrize("lam, series", [
    (0.3, SeriesSpec(p_cutoff=20)), (0.01, SeriesSpec()),
    (1e-5, SeriesSpec()), (-2.0 + 2e-6, SeriesSpec())])
def test_poisson_refuses_beyond_its_estimate(lam, series):
    """A truncated series (p_cutoff 20 at lambda 0.3 missed by 5.8e-3) or a
    lambda too near an integer for the Neville levels (1e-5 missed by
    0.48) is refused instead of reported within the series tolerance."""
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


# ---------------------------------------------------------------------------
# Route cross-validation


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_routes_agree(lam):
    ref = eta_bernoulli(lam)
    for route in ("mode_sum", "poisson"):
        got = eta_form(lam, route)
        assert got.a0 == pytest.approx(ref.a0, abs=1e-6)
        assert got.a2 == pytest.approx(ref.a2, abs=1e-6)


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
    res = eta_integral(data)
    assert res.integrated == pytest.approx(-1.0 / 96.0)


def test_integral_half_channel_with_flux():
    data = InstantonData([InstantonChannel(0.5, 0.0, 3)])
    assert eta_integral(data).integrated == pytest.approx(-1.0 / 24.0)


def test_integral_two_channels():
    data = InstantonData([InstantonChannel(0.25, 0.0, 1),
                          InstantonChannel(0.75, 0.0, -1)])
    assert eta_integral(data).integrated == pytest.approx(0.5 - 1.0 / 48.0)


def test_integral_additive():
    a = InstantonData([InstantonChannel(0.25, 0.0, 1)])
    b = InstantonData([InstantonChannel(0.6, 0.0, -2)])
    total = eta_integral(a.concat(b)).integrated
    assert total == pytest.approx(eta_integral(a).integrated
                                  + eta_integral(b).integrated)


@given(lam=GENERIC, shift=st.integers(min_value=-3, max_value=3),
       chern=st.integers(min_value=-3, max_value=3))
@settings(max_examples=25, deadline=None)
def test_integral_holonomy_shift_invariant(lam, shift, chern):
    a = InstantonData([InstantonChannel(lam, 0.0, chern)])
    b = InstantonData([InstantonChannel(lam + shift, 0.0, chern)])
    assert eta_integral(a).integrated == pytest.approx(
        eta_integral(b).integrated, abs=1e-12)


# ---------------------------------------------------------------------------
# Series spec


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(k_cutoff=10)
    with pytest.raises(ValueError):
        SeriesSpec(p_cutoff=5)
    with pytest.raises(ValueError):
        SeriesSpec(u_min=0.1)
    with pytest.raises(ValueError):
        SeriesSpec(u_max=10.0)
