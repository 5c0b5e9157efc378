"""Acceptance suite: the eight headline checks, each printing one
pass/fail line at its stated tolerance."""

import numpy as np

from tnindex.charclasses import pontryagin_integral
from tnindex.eta import (eta_bernoulli, eta_form, poisson_check,
                         vertical_spectrum)
from tnindex.gauge import (InstantonChannel, InstantonData, boundary_data,
                           bulk_action, field_strength_at)
from tnindex.geometry import (BlendProfile, Gauge, MetricSpec, Point, Variant,
                              curvature_at, hodge_star,
                              potential_and_omega, star3)
from tnindex.index import assemble, index_formula, integrality_check
from tnindex.quadrature import QuadratureSpec

TARGET = 1.0 / 12.0


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_1_pontryagin_integral():
    """1/12 within 1e-3 with defaults, for two distinct blend profiles."""
    quad = QuadratureSpec()  # defaults: n_r=256, n_ang=8
    results = {}
    for kind in ("quintic", "septic"):
        spec = MetricSpec(variant=Variant.EXACT_D,
                          blend=BlendProfile(kind=kind))
        value, _ = pontryagin_integral(spec, quad)
        results[kind] = value
    ok = all(abs(v - TARGET) < 1e-3 for v in results.values())
    report(1, "Pontryagin integral = 1/12 (two blends)", ok,
           ", ".join(f"{k}: {v:.7f}" for k, v in results.items()))
    assert ok


def test_criterion_2_eta_route_agreement():
    """mode_sum and poisson match bernoulli componentwise to 1e-6."""
    worst = 0.0
    for lam in (0.1, 0.25, 0.4, 0.6, 0.9):
        ref = eta_bernoulli(lam)
        for route in ("mode_sum", "poisson"):
            got = eta_form(lam, route)
            worst = max(worst, abs(got.a0 - ref.a0), abs(got.a2 - ref.a2))
    ok = worst < 1e-6
    report(2, "eta-form three-route agreement", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_3_poisson_summation():
    """|lhs - rhs| < 1e-10 on the (a, s) grid."""
    worst = 0.0
    for a in (0.1, 0.25, 0.5 - 1e-3):
        for s in (0.01, 0.1, 1.0):
            lhs, rhs = poisson_check(a, s)
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    report(3, "Poisson summation identity", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_4_geometry_suite():
    """Ricci flatness, Hodge involution, monopole flux and field equation."""
    rng = np.random.default_rng(1)
    spec = MetricSpec(variant=Variant.TN)
    ricci_worst = 0.0
    star_worst = 0.0
    for _ in range(50):
        p = Point.from_polar(float(rng.uniform(0.3, 10.0)),
                             float(rng.uniform(0.3, np.pi - 0.3)),
                             float(rng.uniform(0.0, 2.0 * np.pi)))
        sample = curvature_at(spec, p)
        ricci_worst = max(ricci_worst, float(np.abs(sample.ricci).max()))
        f = np.triu(rng.standard_normal((4, 4)), 1)
        f = f - f.T
        twice = hodge_star(sample.metric,
                           hodge_star(sample.metric, f))
        star_worst = max(star_worst, float(np.abs(twice - f).max()))
    # exact-derivative route: the bound is roundoff-level, stated as 1e-10
    ricci_ok = ricci_worst < 1e-10
    star_ok = star_worst < 1e-12

    # oint d(omega) over the sphere as the north/south chart transition
    # oint (omega_N - omega_S) around a latitude circle (trapezoid in phi)
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    flux_worst = 0.0
    for z in (0.7, -2.0, 0.0):
        circle = [Point(np.cos(ph), np.sin(ph), z) for ph in phi]
        jump = np.array([potential_and_omega(p, Gauge.NORTH)[1]
                         - potential_and_omega(p, Gauge.SOUTH)[1]
                         for p in circle])
        flux = 2.0 * np.pi * np.mean(jump[:, 1] * np.cos(phi)
                                     - jump[:, 0] * np.sin(phi))
        flux_worst = max(flux_worst, abs(flux + 2.0 * np.pi))
    flux_ok = flux_worst < 1e-6

    # d(omega) - star3(dV) via 4th-order numeric exterior derivative
    h = 1e-3
    res_worst = 0.0
    for _ in range(20):
        x = np.array([float(rng.uniform(0.5, 4.0)) for _ in range(3)])
        domega = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                vals = []
                for step in (2 * h, h, -h, -2 * h):
                    xs2 = x.copy()
                    xs2[i] += step
                    vals.append(potential_and_omega(Point(*xs2, 0.0))[1][j])
                domega[i, j] += (-vals[0] + 8 * vals[1] - 8 * vals[2]
                                 + vals[3]) / (12.0 * h)
        domega -= domega.T.copy()
        r = float(np.linalg.norm(x))
        res = np.abs(domega - star3(-0.5 * x / r**3)).max()
        res_worst = max(res_worst, float(res))
    omega_ok = res_worst < 1e-10

    ok = ricci_ok and star_ok and flux_ok and omega_ok
    report(4, "geometry suite (Ricci, star-star, flux, monopole eq)", ok,
           f"ricci {ricci_worst:.2e}, star {star_worst:.2e}, "
           f"flux {flux_worst:.2e}, domega {res_worst:.2e}")
    assert ok


def test_criterion_5_model_field_duality():
    """Relative duality defect < 1e-8 at 50 random points; constant type."""
    rng = np.random.default_rng(2)
    worst = 0.0
    types = set()
    channels = [InstantonChannel(0.37, 1.3), InstantonChannel(0.81, -0.6)]
    for ch in channels:
        for _ in range(25):
            p = Point.from_polar(float(rng.uniform(0.2, 20.0)),
                                 float(rng.uniform(0.3, np.pi - 0.3)),
                                 float(rng.uniform(0.0, 2.0 * np.pi)))
            s = field_strength_at(ch, p)
            worst = max(worst, min(s.asd_defect, s.sd_defect) / s.norm)
            types.add(s.duality_type)
    ok = worst < 1e-8 and len(types) == 1
    report(5, "model field duality", ok,
           f"worst {worst:.2e}, type {types}")
    assert ok


def test_criterion_6_formula_cancellation():
    """Assembled value equals the closed formula to 1e-9 with the
    gravitational constant, on 100 random channel sets."""
    rng = np.random.default_rng(4)
    quad = QuadratureSpec(n_r=64, n_ang=2)
    worst = 0.0
    for _ in range(100):
        rank = int(rng.integers(1, 4))
        lams = []
        while len(lams) < rank:
            lam = float(rng.uniform(0.05, 0.95)) + int(rng.integers(-2, 3))
            if all(abs(lam - x) > 1e-6 for x in lams):
                lams.append(lam)
        data = InstantonData([
            InstantonChannel(lam, float(rng.uniform(-2.0, 2.0)),
                             int(rng.integers(-3, 4))) for lam in lams])
        rep = assemble(data, quad, grav_mode="lemma")
        worst = max(worst, rep.errors["cancellation_residual"])
    ok = worst < 1e-9
    report(6, "assembly vs closed formula cancellation", ok,
           f"worst residual {worst:.2e}")
    assert ok


def test_criterion_7_integrality():
    """Model data integral under the documented +c_j convention within the
    certified quadrature error; the flipped convention fails and is
    reported."""
    # lam* solves -(lam-2)^2/2 + (lam-1/2)*3 - (lam^2-lam)/2 = 0 in (0,1)
    lam_star = (11.0 - np.sqrt(65.0)) / 4.0
    data = InstantonData([InstantonChannel(lam_star, 2.0, 3),
                          InstantonChannel(0.5, 2.0, -1)])
    quad = QuadratureSpec()
    bulk, e_q = bulk_action(data, quad)
    value = index_formula(data, bulk)
    nearest, defect, ok = integrality_check(value, e_q + 1e-3)

    flipped = InstantonData([InstantonChannel(lam_star, 2.0, -3),
                             InstantonChannel(0.5, 2.0, 1)])
    bulk_f, e_f = bulk_action(flipped, quad)
    _, defect_f, ok_f = integrality_check(index_formula(flipped, bulk_f),
                                          e_f + 1e-3)
    report(7, "index integrality under documented sign convention", ok,
           f"defect {defect:.2e} < e_q + 1e-3 = {e_q + 1e-3:.2e}; "
           f"opposite convention fails as expected "
           f"(defect {defect_f:.2e})")
    assert ok
    assert not ok_f  # the failure is surfaced, not hidden
    assert defect_f > 0.05


def test_criterion_8_spectral_gap():
    """delta = 0.15 exactly for lambdas (0.3, 0.7); the spectrum respects
    the gap."""
    data = InstantonData([InstantonChannel(0.3, 0.0),
                          InstantonChannel(0.7, 0.0)])
    lams, _, delta = boundary_data(data)
    delta_ok = delta == 0.15
    gap_ok = True
    window_ok = True
    for lam in lams:
        spec = vertical_spectrum(lam, 100)
        gap_ok = gap_ok and not any(-delta < x < delta for x in spec)
        window_ok = window_ok and any(delta <= abs(x) <= 3 * delta
                                      for x in spec)
    ok = delta_ok and gap_ok and window_ok
    report(8, "spectral gap", ok, f"delta = {delta}")
    assert ok
