"""Radial quadrature rules, error estimates, and determinism."""

import dataclasses

import numpy as np
import pytest

from tnindex import charclasses, gauge, quadrature
from tnindex.errors import ConvergenceError, IsotropyError
from tnindex.gauge import InstantonChannel, InstantonData
from tnindex.geometry import MetricSpec
from tnindex.quadrature import (QuadratureSpec, angular_points, grid_points,
                                integrate_radial, per_grid, radial_nodes,
                                sweep_grids)


def integrate(f, quad, n_r=None):
    """(value, error) of the radial density f, the same in every direction,
    over the one-row sweep of n_r nodes (default quad.n_r)."""
    n = quad.n_r if n_r is None else n_r
    grids = sweep_grids(quad, [n])
    densities = [np.repeat(f(r)[:, None], k, axis=1) for r, _, k in grids]
    [(_, value, error, _, _)] = integrate_radial(grids, densities, quad, [n])
    return value, error


def test_exponential_density():
    quad = QuadratureSpec(r_min=1e-9, r_max=40.0, n_r=256)
    value, error = integrate(lambda r: np.exp(-r), quad)
    assert value == pytest.approx(1.0, abs=1e-8)
    assert abs(value - 1.0) <= error + 1e-8


def test_rational_density_closed_form():
    quad = QuadratureSpec(r_min=1e-4, r_max=80.0, n_r=256)
    value, _ = integrate(lambda r: 2.0 / (2.0 * r + 1.0) ** 3, quad)

    def antideriv(r):
        return -1.0 / (2.0 * (2.0 * r + 1.0) ** 2)

    assert value == pytest.approx(antideriv(80.0) - antideriv(1e-4),
                                  abs=1e-12)


def test_doubling_within_error_estimate():
    quad = QuadratureSpec(r_min=1e-4, r_max=80.0, n_r=32)
    f = lambda r: 2.0 / (2.0 * r + 1.0) ** 3
    v1, e1 = integrate(f, quad)
    quad2 = dataclasses.replace(quad, n_r=64)
    v2, _ = integrate(f, quad2)
    assert abs(v2 - v1) <= e1 + 1e-14


def test_weights_cover_interval():
    """The rule returns exactly n nodes, also where n is no multiple of
    the 16-point panel, and its weights integrate dr exactly."""
    quad = QuadratureSpec()
    for n in (256, 100, 300, 50):
        r, w = radial_nodes(quad, n)
        assert len(r) == len(w) == n
        assert r.min() >= quad.r_min and r.max() <= quad.r_max
        # sum of weights = integral of dr over [r_min, r_max]
        assert np.dot(np.ones_like(r), w) == pytest.approx(
            quad.r_max - quad.r_min, rel=1e-10)


def test_panel_split_keeps_multiples_of_16():
    """A multiple of 16 nodes is 16-point panels, and fewer than 32 nodes
    one panel, as before the remainder of n // 16 got its own nodes."""
    quad = QuadratureSpec()
    y0, y1 = np.log(quad.r_min), np.log(quad.r_max)
    for n in (16, 24, 31, 64, 128, 256):
        n_panels = max(1, n // 16)
        xs, ws = np.polynomial.legendre.leggauss(n // n_panels)
        edges = np.linspace(y0, y1, n_panels + 1)
        y = np.concatenate([0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
                            for lo, hi in zip(edges[:-1], edges[1:])])
        wy = np.concatenate([0.5 * (hi - lo) * ws
                             for lo, hi in zip(edges[:-1], edges[1:])])
        r, w = radial_nodes(quad, n)
        assert np.array_equal(r, np.exp(y))
        assert np.array_equal(w, wy * np.exp(y))


def test_legendre_rule_is_shared_read_only():
    """The panel rule is built once per size and shared: repeated grids
    keep their bits, and an in-place write to the shared rule fails."""
    quad = QuadratureSpec()
    first = [radial_nodes(quad, n) for n in (256, 100, 16)]
    for n, (r, w) in zip((256, 100, 16), first):
        again = radial_nodes(quad, n)
        assert np.array_equal(r, again[0]) and np.array_equal(w, again[1])
    xs, ws = quadrature._legendre_rule(16)
    ref_xs, ref_ws = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(xs, ref_xs) and np.array_equal(ws, ref_ws)
    assert quadrature._legendre_rule(16)[0] is xs
    for arr in (xs, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("sweep, sizes", [([64, 128, 256], [32, 64, 128, 256]),
                                          ([64, 32], [16, 64, 32]),
                                          ([16], [8, 16])])
def test_sweep_grids_list_each_grid_once(sweep, sizes):
    """The checked grid, the half-size grid of the smallest n_r, comes
    first at quad.n_ang directions; every other grid of the sweep follows
    once, at one direction, as radial_nodes builds it.  [16] is the
    smallest legal sweep."""
    quad = QuadratureSpec(n_ang=5)
    grids = sweep_grids(quad, sweep)
    assert [len(r) for r, _, _ in grids] == sizes
    assert len(set(sizes)) == len(sizes)
    assert [k for _, _, k in grids] == [quad.n_ang] + [1] * (len(sizes) - 1)
    for r, w, _ in grids:
        nodes, weights = radial_nodes(quad, len(r))
        assert r is nodes and w is weights


@pytest.mark.parametrize("sweep", [[64, 128, 256], [16]])
def test_per_grid_splits_the_grid_points_back(sweep):
    """grid_points lays the grids out one after another, each radius-major
    at its angular_points directions; per_grid gives values at those
    points back as one view per grid, in grid order, with the (len(r),
    directions) shape that integrate_radial reads."""
    quad = QuadratureSpec(n_ang=3)
    grids = sweep_grids(quad, sweep)
    xyz, start = grid_points(grids), 0
    for r, _, k in grids:
        part = xyz[start:start + len(r) * k]
        assert part.tobytes() == angular_points(r, k).reshape(-1, 3).tobytes()
        start += len(r) * k
    assert start == len(xyz)
    index = np.arange(len(xyz))
    views = per_grid(index, grids)
    assert [v.shape for v in views] == [(len(r), k) for r, _, k in grids]
    assert all(np.shares_memory(v, index) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), index)
    flat = np.concatenate([np.repeat(np.exp(-r), k) for r, _, k in grids])
    assert integrate_radial(grids, per_grid(flat, grids), quad, sweep) == \
        integrate_radial(grids, [np.repeat(np.exp(-r)[:, None], k, axis=1)
                                 for r, _, k in grids], quad, sweep)


def test_both_densities_sample_the_grid_points(monkeypatch):
    """The points whose wedges _bulk_geometry caches and the points that
    _density_samples sends to curvature_form_chunks are both
    grid_points(grids), byte for byte."""
    grids = sweep_grids(QuadratureSpec(n_r=64), [32, 64])
    seen = {}
    field_geometry = gauge._field_strength_geometry
    chunks = charclasses.curvature_form_chunks

    def bulk_points(xyz, *args):
        seen["bulk"] = xyz
        return field_geometry(xyz, *args)

    def curvature_points(spec, xyz, *args):
        seen["curvature"] = xyz
        return chunks(spec, xyz, *args)

    monkeypatch.setattr(gauge, "_field_strength_geometry", bulk_points)
    monkeypatch.setattr(charclasses, "curvature_form_chunks",
                        curvature_points)
    gauge._bulk_geometry.cache_clear()
    gauge._bulk_densities(InstantonData([InstantonChannel(0.3, 1.0)]),
                          grids, (), 1.0)
    gauge._bulk_geometry.cache_clear()
    charclasses._density_samples(MetricSpec(), grids, ())
    points = grid_points(grids).tobytes()
    assert seen["bulk"].tobytes() == points == seen["curvature"].tobytes()


def test_integrate_radial_takes_the_first_direction():
    """Each row's value is the first direction of its grids, and the
    checked grid's sum |w spread| is every row's direction term; a spread
    beyond quad.tol raises IsotropyError."""
    quad = QuadratureSpec(n_ang=3, tol=1e-2)
    grids = sweep_grids(quad, [32, 64])
    tilt = np.array([1.0, 1.001, 0.998])
    densities = [np.exp(-r)[:, None] * tilt[:k] for r, _, k in grids]
    rows = integrate_radial(grids, densities, quad, [32, 64])
    r16, w16, _ = grids[0]
    spread = np.exp(-r16) * 0.005 / 3.0
    for (n, value, error, direction, mass), (ref, _) in zip(
            rows, [integrate(lambda r: np.exp(-r), quad, n) for n in
                   (32, 64)]):
        assert value == ref and mass == pytest.approx(ref)
        assert direction == pytest.approx(spread @ w16, rel=1e-12)
    with pytest.raises(IsotropyError):
        integrate_radial(grids, densities, QuadratureSpec(n_ang=3, tol=1e-4),
                         [32, 64])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integral_reports_history():
    quad = QuadratureSpec(n_r=100)
    with pytest.raises(ConvergenceError) as exc:
        integrate(lambda r: np.full_like(r, np.inf), quad)
    assert [n for n, _ in exc.value.history] == [50, 100]


def tilted_sweep(n_r_values, n_ang=3):
    """The sweep grids of n_r_values and a density on them that each
    direction scales by its own factor within 1e-3 of 1, as fresh arrays."""
    quad = QuadratureSpec(n_ang=n_ang, tol=1e-2)
    grids = sweep_grids(quad, n_r_values)
    tilt = np.linspace(1.0, 1.001, n_ang)
    return quad, grids, [np.exp(-r)[:, None] * tilt[:k] for r, _, k in grids]


def test_isotropy_check_refuses_nan():
    """A NaN in a direction other than the first fails the ratio guard."""
    _, _, (checked, *_) = tilted_sweep([64])
    mean, spread = quadrature.angular_spread(checked)
    assert np.array_equal(mean, checked.mean(axis=1))
    quadrature.require_isotropy(checked, spread, 1e-2)
    checked[7, 2] = np.nan
    _, spread = quadrature.angular_spread(checked)
    with pytest.raises(IsotropyError):
        quadrature.require_isotropy(checked, spread, 1e-2)


@pytest.mark.parametrize("sweep", [[64], [32, 64]])
def test_nan_off_the_first_direction_raises(sweep):
    """A NaN that only the checked grid's other directions hold raises
    ConvergenceError with the sums as its history, rather than returning a
    NaN direction term."""
    quad, grids, densities = tilted_sweep(sweep)
    densities[0][7, 2] = np.nan
    with pytest.raises(ConvergenceError) as exc:
        integrate_radial(grids, densities, quad, sweep)
    assert [n for n, _ in exc.value.history] == [sweep[0] // 2, sweep[0]]
    assert all(np.isfinite(value) for _, value in exc.value.history)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coarse_grid_raises(bad):
    """A non-finite sample on the coarse grid of a row alone raises, rather
    than returning a non-finite error estimate; the history keeps the
    finite fine sum."""
    quad, grids, densities = tilted_sweep([64])
    densities[0][3, 0] = bad
    with pytest.raises(ConvergenceError) as exc:
        integrate_radial(grids, densities, quad, [64])
    (_, coarse), (_, fine) = exc.value.history
    assert not np.isfinite(coarse) and np.isfinite(fine)


def test_determinism_bitwise():
    quad = QuadratureSpec()
    f = lambda r: 1.0 / (1.0 + r) ** 2
    v1, _ = integrate(f, quad)
    v2, _ = integrate(f, quad)
    assert v1 == v2


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_r=8)
    with pytest.raises(ValueError):
        QuadratureSpec(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(n_ang=1)
