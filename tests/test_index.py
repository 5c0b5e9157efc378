"""Index assembly, formula identities, and integrality diagnostics."""

import numpy as np
import pytest

from tnindex.gauge import (InstantonChannel, InstantonData, bulk_action,
                           bulk_action_closed_form)
from tnindex.geometry import MetricSpec, Variant
from tnindex.index import (IndexReport, assemble, index_formula,
                           index_formula_full_flux, integrality_check)
from tnindex.quadrature import QuadratureSpec

FAST_QUAD = QuadratureSpec(n_r=64, n_ang=2)


def test_formula_substitution_examples():
    d1 = InstantonData([InstantonChannel(0.25, 0.0, 0)])
    assert index_formula(d1, 0.0) == pytest.approx(0.09375)
    d2 = InstantonData([InstantonChannel(0.5, 0.0, 2)])
    assert index_formula(d2, 1.0) == pytest.approx(1.125)


def test_formula_shift_invariant():
    a = InstantonData([InstantonChannel(0.25, 0.0, 2)])
    b = InstantonData([InstantonChannel(1.25, 0.0, 2)])
    assert index_formula(a, 0.3) == pytest.approx(index_formula(b, 0.3))


def test_jump_law_across_integer():
    """Crossing lambda = n from below to above changes the formula by -c_j;
    the B2-term contributes 0 in the limit.  Verified by Richardson
    extrapolation of the two-sided finite-eps difference (linear in eps)."""
    c = 3
    bulk = 0.2

    def diff(eps):
        below = index_formula(
            InstantonData([InstantonChannel(1.0 - eps, 0.0, c)]), bulk)
        above = index_formula(
            InstantonData([InstantonChannel(1.0 + eps, 0.0, c)]), bulk)
        return above - below

    d1, d2 = diff(1e-4), diff(5e-5)
    extrapolated = 2.0 * d2 - d1
    assert extrapolated == pytest.approx(-c, abs=1e-6)


def test_integrality_check_examples():
    assert integrality_check(2.0003, 1e-2) == (2, pytest.approx(0.0003), True)
    nearest, defect, ok = integrality_check(0.09375, 1e-3)
    assert (nearest, defect, ok) == (0, pytest.approx(0.09375), False)
    nearest, defect, ok = integrality_check(-1.9999999, 1e-5)
    assert nearest == -2 and ok
    assert defect == pytest.approx(1e-7, rel=1e-2)
    # exact half-integer ties round to even
    assert integrality_check(-1.5, 1.0)[0] == -2
    assert integrality_check(2.5, 1.0)[0] == 2
    with pytest.raises(ValueError):
        integrality_check(1.0, 0.0)


def test_assemble_lemma_matches_formula_exactly():
    data = InstantonData([InstantonChannel(1.3, 1.3, 1),
                          InstantonChannel(0.6, 0.6, -2)])
    report = assemble(data, FAST_QUAD, grav_mode="lemma")
    assert isinstance(report, IndexReport)
    assert abs(report.bulk) < 1e-8  # lam = m channels are flat
    assert report.errors["cancellation_residual"] < 1e-9
    assert report.index_value == pytest.approx(
        index_formula(data, report.bulk), abs=1e-9)


def test_assemble_cancellation_hundred_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rank = int(rng.integers(1, 4))
        lams = []
        while len(lams) < rank:
            lam = float(rng.uniform(0.05, 0.95)) + int(rng.integers(-2, 3))
            if all(abs(lam - x) > 1e-6 for x in lams):
                lams.append(lam)
        channels = [InstantonChannel(lam, float(rng.uniform(-2.0, 2.0)),
                                     int(rng.integers(-3, 4)))
                    for lam in lams]
        report = assemble(InstantonData(channels), FAST_QUAD,
                          grav_mode="lemma")
        assert report.errors["cancellation_residual"] < 1e-9


def test_numeric_grav_close_to_lemma():
    data = InstantonData([InstantonChannel(0.5, 0.5, 1),
                          InstantonChannel(0.25, 0.25, 0)])
    quad = QuadratureSpec(n_r=128)
    lemma = assemble(data, quad, grav_mode="lemma")
    numeric = assemble(data, quad, grav_mode="numeric")
    assert abs(numeric.grav - lemma.grav) < 1e-3 * data.rank
    errors = numeric.errors
    assert errors["cancellation_residual"] <= 1e-9 + errors["grav"]


def test_bulk_takes_metric_l():
    """The bulk is integrated at metric.l, the l of the numeric gravity."""
    data = InstantonData([InstantonChannel(0.3, 1.0, -1)])
    quad = QuadratureSpec(n_r=128)
    report = assemble(data, quad,
                      metric=MetricSpec(variant=Variant.EXACT_D, l=2.0))
    assert report.bulk == bulk_action(data, quad, 2.0)[0]
    assert report.bulk != bulk_action(data, quad, 1.0)[0]


def test_rank_additivity():
    quad = QuadratureSpec(n_r=64)
    a = InstantonData([InstantonChannel(0.25, 1.0, 1)])
    b = InstantonData([InstantonChannel(0.6, -0.5, -1)])
    ra = assemble(a, quad, grav_mode="lemma")
    rb = assemble(b, quad, grav_mode="lemma")
    rab = assemble(InstantonData(a.channels + b.channels), quad,
                   grav_mode="lemma")
    assert rab.bulk == pytest.approx(ra.bulk + rb.bulk, abs=1e-12)
    assert rab.grav == pytest.approx(ra.grav + rb.grav)
    assert rab.eta_contribution == pytest.approx(
        ra.eta_contribution + rb.eta_contribution)


def test_full_flux_model_integrality():
    """The exactly dual model with induced degree c = -m yields the integer
    -m(m-1)/2 under the full-flux variant, independent of lambda."""
    for m in (0, 1, 2, 3, -1):
        for lam in (0.13, 0.37, 0.81):
            data = InstantonData([InstantonChannel(lam, float(m), -m)])
            value = index_formula_full_flux(
                data, bulk_action_closed_form(data))
            assert value == pytest.approx(-m * (m - 1) / 2.0, abs=1e-12)


@pytest.mark.parametrize("l", [0.5, 2.0])
def test_full_flux_integer_at_any_l(l):
    """On dual data (c = -m) at l != 1 the reported bulk puts the full-flux
    index within its error of -sum m(m-1)/2; with the old holonomy lam/l
    it missed by 0.71 at l = 2 against an error of 0.04."""
    data = InstantonData([InstantonChannel(0.3, 1.0, -1),
                          InstantonChannel(0.65, -2.0, 2)])
    report = assemble(data, QuadratureSpec(), grav_mode="lemma",
                      metric=MetricSpec(variant=Variant.EXACT_D, l=l))
    value = index_formula_full_flux(data, report.bulk)
    assert abs(value - (-3.0)) <= report.errors["bulk"]


def test_report_serializes():
    data = InstantonData([InstantonChannel(0.5, 0.5, 0)])
    report = assemble(data, FAST_QUAD, grav_mode="lemma")
    doc = report.to_dict()
    assert doc["schema"] == "index-report/1"
    assert doc["grav_mode"] == "lemma"
    assert set(doc["errors"]) == {"bulk", "grav", "eta",
                                  "cancellation_residual"}
    assert doc["quadrature"]["n_r"] == FAST_QUAD.n_r


def test_unknown_grav_mode_rejected():
    data = InstantonData([InstantonChannel(0.5, 0.5, 0)])
    with pytest.raises(ValueError):
        assemble(data, FAST_QUAD, grav_mode="exact")
