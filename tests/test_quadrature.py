"""Radial quadrature rules, error estimates, and determinism."""

import dataclasses

import numpy as np
import pytest

from tnindex.quadrature import (QuadratureSpec, integrate_radial,
                                radial_nodes, sample_density)


def test_exponential_density():
    quad = QuadratureSpec(r_min=1e-9, r_max=40.0, n_r=256)
    rho = sample_density(lambda r: np.exp(-r), quad)
    value, error = integrate_radial(rho)
    assert value == pytest.approx(1.0, abs=1e-8)
    assert abs(value - 1.0) <= error + 1e-8


def test_rational_density_closed_form():
    quad = QuadratureSpec(r_min=1e-4, r_max=80.0, n_r=256)
    rho = sample_density(lambda r: 2.0 / (2.0 * r + 1.0) ** 3, quad)
    value, _ = integrate_radial(rho)

    def antideriv(r):
        return -1.0 / (2.0 * (2.0 * r + 1.0) ** 2)

    assert value == pytest.approx(antideriv(80.0) - antideriv(1e-4),
                                  abs=1e-12)


def test_doubling_within_error_estimate():
    quad = QuadratureSpec(r_min=1e-4, r_max=80.0, n_r=32)
    f = lambda r: 2.0 / (2.0 * r + 1.0) ** 3
    v1, e1 = integrate_radial(sample_density(f, quad))
    quad2 = dataclasses.replace(quad, n_r=64)
    v2, _ = integrate_radial(sample_density(f, quad2))
    assert abs(v2 - v1) <= e1 + 1e-14


def test_tanh_sinh_agrees_with_gauss():
    f = lambda r: np.exp(-r) * r
    gl = QuadratureSpec(r_min=1e-6, r_max=60.0, n_r=256)
    ts = QuadratureSpec(r_min=1e-6, r_max=60.0, n_r=256, scheme="tanh-sinh")
    v_gl, _ = integrate_radial(sample_density(f, gl))
    v_ts, _ = integrate_radial(sample_density(f, ts))
    assert v_gl == pytest.approx(v_ts, abs=1e-9)
    assert v_gl == pytest.approx(1.0, abs=1e-8)


def test_weights_cover_interval():
    quad = QuadratureSpec()
    r, w = radial_nodes(quad)
    assert r.min() >= quad.r_min and r.max() <= quad.r_max
    # sum of weights = integral of dr over [r_min, r_max]
    assert np.dot(np.ones_like(r), w) == pytest.approx(
        quad.r_max - quad.r_min, rel=1e-10)


def test_determinism_bitwise():
    quad = QuadratureSpec()
    f = lambda r: 1.0 / (1.0 + r) ** 2
    v1, _ = integrate_radial(sample_density(f, quad))
    v2, _ = integrate_radial(sample_density(f, quad))
    assert v1 == v2


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_r=8)
    with pytest.raises(ValueError):
        QuadratureSpec(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(scheme="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(n_ang=1)
