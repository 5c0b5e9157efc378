"""Radial quadrature rules, error estimates, and determinism."""

import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest

from tnindex import charclasses, eta, gauge, quadrature
from tnindex.errors import ConvergenceError, IsotropyError
from tnindex.gauge import InstantonChannel, InstantonData
from tnindex.geometry import MetricSpec
from tnindex.quadrature import (ROUNDOFF, GridSet, QuadratureSpec,
                                angular_points, angular_spread,
                                integrate_radial, radial_nodes, sweep_grids)

NO_ENDS = ([], [])  # a density with no closed-form components


def isotropic(f, ends=NO_ENDS):
    """A sampler of the radial density f, the same in every direction,
    with the ends given."""
    return lambda grid_set: ([np.repeat(f(r)[:, None], k, axis=1)
                              for r, _, k in grid_set.grids], ends)


def given_densities(grid_set, densities, ends=NO_ENDS):
    """A sampler that returns densities already sampled on grid_set, the
    set integrate_radial finds for the same layout."""
    def sample(grids):
        assert grids is grid_set
        return densities, ends
    return sample


def integrate(f, quad, n_r=None):
    """(value, error) of the radial density f, the same in every direction,
    over the one-row sweep of n_r nodes (default quad.n_r)."""
    n = quad.n_r if n_r is None else n_r
    [(_, value, error, _)] = integrate_radial(quad, [n], (), isotropic(f),
                                              NO_ENDS, 0.0)
    return value, error


def tail_bound(direction, mass, ends=NO_ENDS, scale=0.0):
    """integrate_radial's tail bound, written out left to right."""
    at_r_min, at_r_max = (sum(abs(x) for x in end) for end in ends)
    return direction + ROUNDOFF * (((mass + at_r_min) + at_r_max)
                                   + scale) + sys.float_info.min


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


@pytest.mark.parametrize("knots, counts", [((2.0,), [8, 8]),
                                           ((2.0, 4.0), [8, 4, 4])])
def test_knotted_pieces_halve_down_to_the_smallest_grid(knots, counts):
    """At n_r 16 and its half-size grid of 8, the smallest legal pair, the
    rule holds exactly n nodes, increasing, with positive weights; each
    piece between the knots holds its share, halved on the 8-node grid."""
    quad = QuadratureSpec()
    ends = [quad.r_min, *knots, quad.r_max]
    for n, share in ((16, counts), (8, [c // 2 for c in counts])):
        r, w = radial_nodes(quad, n, knots)
        assert len(r) == len(w) == n
        assert np.all(np.diff(r) > 0) and np.all(w > 0)
        assert [((r > lo) & (r < hi)).sum()
                for lo, hi in zip(ends[:-1], ends[1:])] == share


def test_knots_outside_the_range_are_ignored():
    """Only knots strictly inside (r_min, r_max) cut the rule, once each and
    in any order: with none inside it keeps the bits of the plain rule."""
    quad = QuadratureSpec()
    for n in (16, 100, 256):
        plain, cut = radial_nodes(quad, n), radial_nodes(quad, n, (4.0, 2.0))
        for r, w in [radial_nodes(quad, n, (quad.r_min, 200.0)),
                     radial_nodes(quad, n, ())]:
            assert r.tobytes() == plain[0].tobytes()
            assert w.tobytes() == plain[1].tobytes()
        r, w = radial_nodes(quad, n, (1e-6, 2.0, 4.0, 2.0, quad.r_max))
        assert r.tobytes() == cut[0].tobytes()
        assert w.tobytes() == cut[1].tobytes()


def test_a_kink_at_a_knot_costs_no_digit():
    """rho = max(r - 2, 0) is a polynomial on each side of its kink at
    r = 2: cut there, the rule meets its integral to roundoff, where the
    plain rule misses by more than 1e-6."""
    quad = QuadratureSpec(r_max=10.0)
    exact = 0.5 * (10.0 - 2.0) ** 2
    for knots, within in (((2.0,), 1e-13), ((), None)):
        r, w = radial_nodes(quad, 128, knots)
        miss = abs(np.maximum(r - 2.0, 0.0) @ w - exact)
        assert miss <= within * exact if within else miss > 1e-6


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
    once, at one direction, as radial_nodes builds it, with or without
    knots.  [16] is the smallest legal sweep."""
    quad = QuadratureSpec(n_ang=5)
    for knots in ((), (2.0, 4.0)):
        grids = sweep_grids(quad, sweep, knots).grids
        assert [len(r) for r, _, _ in grids] == sizes
        assert len(set(sizes)) == len(sizes)
        assert [k for _, _, k in grids] == \
            [quad.n_ang] + [1] * (len(sizes) - 1)
        for r, w, _ in grids:
            nodes, weights = radial_nodes(quad, len(r), knots)
            assert r.tobytes() == nodes.tobytes()
            assert w.tobytes() == weights.tobytes()


@pytest.mark.parametrize("sweep", [[64, 128, 256], [16]])
def test_per_grid_splits_the_grid_points_back(sweep):
    """A GridSet holds the sweep's n_r_values and end radii and lays its
    points out grid after grid, each radius-major at its angular_points
    directions; split gives values at those points back as one view per
    grid, in grid order, with the (len(r), directions) shape that
    integrate_radial reads."""
    quad = QuadratureSpec(n_ang=3)
    grid_set = sweep_grids(quad, sweep)
    assert grid_set.n_r_values == tuple(sweep)
    assert grid_set.ends == (quad.r_min, quad.r_max)
    grids, xyz, start = grid_set.grids, grid_set.points, 0
    for r, _, k in grids:
        part = xyz[start:start + len(r) * k]
        assert part.tobytes() == angular_points(r, k).reshape(-1, 3).tobytes()
        start += len(r) * k
    assert start == len(xyz)
    index = np.arange(len(xyz))
    views = grid_set.split(index)
    assert [v.shape for v in views] == [(len(r), k) for r, _, k in grids]
    assert all(np.shares_memory(v, index) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), index)
    flat = np.concatenate([np.repeat(np.exp(-r), k) for r, _, k in grids])
    assert integrate_radial(
        quad, sweep, (), given_densities(grid_set, grid_set.split(flat)),
        NO_ENDS, 0.0) == \
        integrate_radial(quad, sweep, (), isotropic(lambda r: np.exp(-r)),
                         NO_ENDS, 0.0)


def test_sweep_grids_share_one_set_per_layout():
    """One GridSet per layout (r_min, r_max, n_ang, knots inside,
    n_r_values): a list, a tuple and a numpy array of the same sizes,
    another n_r or tol, or knots outside (r_min, r_max) give the same set,
    whose sizes are Python ints; a change of any field of the layout gives
    another, and a float size is refused."""
    quad = QuadratureSpec()
    grid_set = sweep_grids(quad, np.array([64, 128, 256]))
    assert [type(n) for n in grid_set.n_r_values] == [int] * 3
    assert sweep_grids(quad, [64, 128, 256]) is grid_set
    assert sweep_grids(quad, (64, 128, 256)) is grid_set
    rows = charclasses.convergence_table(MetricSpec(), quad, [64, 128, 256])
    assert [type(row[0]) for row in rows] == [int] * 3
    with pytest.raises(TypeError):
        sweep_grids(quad, [64.0])
    assert sweep_grids(dataclasses.replace(quad, n_r=64, tol=1e-2),
                       [64, 128, 256]) is grid_set
    for other in [(dataclasses.replace(quad, r_min=1e-5), [64, 128, 256]),
                  (dataclasses.replace(quad, r_max=120.0), [64, 128, 256]),
                  (dataclasses.replace(quad, n_ang=2), [64, 128, 256]),
                  (quad, [64, 128]), (quad, [256, 128, 64])]:
        assert sweep_grids(*other) is not grid_set
    assert sweep_grids(quad, [64, 128, 256], (200.0,)) is grid_set
    knotted = sweep_grids(quad, [64, 128, 256], (2.0, 4.0))
    assert knotted is not grid_set
    assert sweep_grids(quad, [64, 128, 256], [4.0, 200.0, 2.0]) is knotted


def test_grid_set_is_read_only_and_hashed_by_identity():
    """A set's points, nodes and weights refuse an in-place write and its
    fields refuse a new value; two sets of the same grids are two keys."""
    grid_set = sweep_grids(QuadratureSpec(), [64])
    for arr in [grid_set.points] + [a for r, w, _ in grid_set.grids
                                    for a in (r, w)]:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid_set.ends = (1.0, 2.0)
    twin = GridSet(grid_set.grids, grid_set.n_r_values, grid_set.ends)
    assert twin.points.tobytes() == grid_set.points.tobytes()
    assert twin != grid_set and len({twin, grid_set}) == 2


def test_grid_set_cache_stays_at_its_bound():
    """The set cache holds the sets, and what GridSet.derived keeps on
    them, up to its one bound; more layouts leave it at its bound."""
    cache = quadrature._layout
    info = cache.cache_info()
    cache.cache_clear()
    sets = [sweep_grids(QuadratureSpec(n_ang=2 + k), [32])
            for k in range(info.maxsize + 3)]
    assert cache.cache_info().currsize == info.maxsize
    assert sweep_grids(QuadratureSpec(n_ang=2 + info.maxsize + 2),
                       [32]) is sets[-1]


def count_geometry_builds(monkeypatch):
    """{term: builds} of the Pontryagin and the bulk geometry, counted at
    the point-wise work each build does once."""
    builds = {"sweep": 0, "bulk": 0}

    def counted(module, name, term):
        inner = getattr(module, name)

        def wrapper(*args):
            builds[term] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(charclasses, "_seed_chart", "sweep")
    counted(gauge, "_field_strength_geometry", "bulk")
    return builds


def test_a_second_sweep_hits_both_term_caches(monkeypatch):
    """A second Pontryagin sweep and a second bulk call on the same layout,
    at another tol, find their grid set and its geometry kept on it."""
    quad = QuadratureSpec(n_r=64, n_ang=3)
    again = dataclasses.replace(quad, tol=1e-2)
    data = InstantonData([InstantonChannel(0.3, 1.0)])
    quadrature._layout.cache_clear()
    builds = count_geometry_builds(monkeypatch)
    first = (charclasses.convergence_table(MetricSpec(), quad, [64]),
             gauge.bulk_action(data, quad))
    assert builds == {"sweep": 1, "bulk": 1}
    second = (charclasses.convergence_table(MetricSpec(), again, [64]),
              gauge.bulk_action(data, again))
    assert builds == {"sweep": 1, "bulk": 1}
    assert quadrature._layout.cache_info()[:2] == (3, 1)
    assert second == first


def test_an_evicted_set_takes_its_geometry_along(monkeypatch):
    """A Pontryagin layout evicted by more bulk layouts than the set cache
    holds leaves nothing pinned: its set and geometry are freed, and its
    next sweep builds both once, with the bits of the first."""
    quadrature._layout.cache_clear()
    quad, spec = QuadratureSpec(n_r=64, n_ang=3), MetricSpec()
    first = charclasses.convergence_table(spec, quad, [32, 64])
    evicted = weakref.ref(sweep_grids(quad, [32, 64]))
    data = InstantonData([InstantonChannel(0.3, 1.0)])
    for k in range(quadrature._layout.cache_info().maxsize + 1):
        gauge.bulk_action(data, QuadratureSpec(n_r=32, n_ang=2 + k))
    gc.collect()
    assert evicted() is None
    builds = count_geometry_builds(monkeypatch)
    for _ in range(2):
        assert charclasses.convergence_table(spec, quad, [32, 64]) == first
    assert builds == {"sweep": 1, "bulk": 0}


def test_both_densities_sample_the_grid_points(monkeypatch):
    """The points whose wedges _bulk_geometry caches and the points that
    _density_samples sends to curvature_form_chunks are both the points of
    the grid set, byte for byte."""
    quad = QuadratureSpec(n_r=64)
    quadrature._layout.cache_clear()  # a new set, with no geometry yet
    grids = sweep_grids(quad, [32, 64])
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
    gauge._bulk_densities(InstantonData([InstantonChannel(0.3, 1.0)]),
                          grids, 1.0)
    charclasses._density_samples(MetricSpec(), grids)
    points = grids.points.tobytes()
    assert seen["bulk"].tobytes() == points == seen["curvature"].tobytes()


def test_integrate_radial_takes_the_first_direction():
    """Each row's value is the first direction of its grids, and its error
    is |fine - coarse| of that direction's np.dot sums on its n_r grid and
    its half-size grid, bit for bit; the checked grid's sum |w spread| is
    every row's direction term, and the tail bound is that term plus the
    roundoff of the row's mass sum |w rho|; a spread beyond quad.tol
    raises IsotropyError.  The sampler runs once per call."""
    quad = QuadratureSpec(n_ang=3, tol=1e-2)
    grid_set = sweep_grids(quad, [32, 64])
    tilt = np.array([1.0, 1.001, 0.998])
    densities = [np.exp(-r)[:, None] * tilt[:k] for r, _, k in grid_set.grids]
    calls = []

    def sample(grids):
        calls.append(grids)
        return densities, NO_ENDS

    rows = integrate_radial(quad, [32, 64], (), sample, NO_ENDS, 0.0)
    assert calls == [grid_set]
    r16, w16, _ = grid_set.grids[0]
    spread = np.exp(-r16) * 0.005 / 3.0
    direction = float(angular_spread(densities[0])[1] @ w16)
    assert direction == pytest.approx(spread @ w16, rel=1e-12)
    sums = {len(r): float(np.dot(np.exp(-r), w))
            for r, w, _ in grid_set.grids}
    assert sorted(sums) == [16, 32, 64]
    for (n, value, error, tail), (ref, _) in zip(
            rows, [integrate(lambda r: np.exp(-r), quad, n) for n in
                   (32, 64)]):
        r, w, _ = grid_set.grids[[32, 64].index(n) + 1]
        mass = float(np.abs(np.exp(-r)) @ w)
        assert value == ref and mass == pytest.approx(ref)
        assert error == abs(sums[n] - sums[n // 2]) > 0.0
        assert tail == tail_bound(direction, mass)
    with pytest.raises(IsotropyError):
        integrate_radial(QuadratureSpec(n_ang=3, tol=1e-4), [32, 64], (),
                         sample, NO_ENDS, 0.0)


def test_tail_bound_adds_ends_and_scale_left_to_right():
    """The tail bound is direction + ROUNDOFF * (((mass + sum_j
    |F_j(r_min)|) + sum_j |F_j(r_max)|) + scale) + the smallest normal
    double, bit for bit; a scale of 0.0 adds nothing, and a scale of inf
    with finite sums raises ConvergenceError naming the bound."""
    quad = QuadratureSpec(n_ang=2)
    ends = ([0.5, -0.25], [-1e-3, 2.0])
    r, w, _ = sweep_grids(quad, [64]).grids[-1]
    mass = float(np.abs(np.exp(r)) @ w)
    [(*_, bare)] = integrate_radial(quad, [64], (), isotropic(np.exp),
                                    NO_ENDS, 0.0)
    assert bare == ROUNDOFF * mass + sys.float_info.min
    for scale in (0.0, 3.0, 1e300):
        [(*_, tail)] = integrate_radial(
            quad, [64], (), isotropic(np.exp, ends), NO_ENDS, scale)
        assert tail == tail_bound(0.0, mass, ends, scale)
    with pytest.raises(ConvergenceError) as exc:
        integrate_radial(quad, [64], (), isotropic(np.exp, ends), NO_ENDS,
                         np.inf)
    assert all(np.isfinite(value) for _, value in exc.value.history)
    assert str(exc.value) == \
        "tail bound of a finite radial integral is not finite"


def test_integrate_radial_adds_the_exact_ends():
    """A row's value is its fine sum plus the head sum_j [F_j(r_min) -
    F_j(0+)] and the tail sum_j [F_j(infinity) - F_j(r_max)], each summed
    from 0.0 in component order; its error is the sums' alone, and its
    tail bound adds the ends' roundoff to that of the bare density.
    F = -1/(2 (2r + 1)^2) in three shares, whose r-derivative is the
    density, gives the integral over r > 0, 1/2."""
    quad = QuadratureSpec(n_ang=2)
    density = lambda r: 2.0 / (2.0 * r + 1.0) ** 3
    shares = [0.7, 1e-3, 0.299]
    ends = tuple([-0.5 * s / (2.0 * r + 1.0) ** 2 for s in shares]
                 for r in (quad.r_min, quad.r_max))
    limits = ([-0.5 * s for s in shares], [0.0] * 3)
    rows = integrate_radial(quad, [64, 128], (), isotropic(density, ends),
                            limits, 0.0)
    bare = integrate_radial(quad, [64, 128], (), isotropic(density), NO_ENDS,
                            0.0)
    head = tail = 0.0
    for at_min, at_max, at_zero, at_inf in zip(*ends, *limits):
        head += at_min - at_zero
        tail += at_inf - at_max
    grids = {len(r): (r, w) for r, w, _ in sweep_grids(quad, [64, 128]).grids}
    for (n, value, error, bound), (m, fine, bare_error, bare_bound) in zip(
            rows, bare):
        r, w = grids[n]
        mass = float(np.abs(density(r)) @ w)
        assert n == m and error == bare_error
        assert value == fine + head + tail
        assert bare_bound == tail_bound(0.0, mass)
        assert bound == tail_bound(0.0, mass, ends) > bare_bound
        assert abs(value - 0.5) <= error + 1e-12


@pytest.mark.parametrize("slot", range(4))
def test_non_finite_end_raises(slot):
    """An end or a limit that is not finite fails the row's finite check,
    with the quadrature's finite sums as the history."""
    quad = QuadratureSpec(n_ang=2)
    decay = lambda r: np.exp(-r)
    values = [[0.5, 0.0], [0.25, 0.0], [0.0, 0.0], [1.0, 0.0]]
    values[slot][1] = np.inf
    with pytest.raises(ConvergenceError) as exc:
        integrate_radial(quad, [64], (), isotropic(decay, values[:2]),
                         values[2:], 0.0)
    [(_, fine, *_)] = integrate_radial(quad, [64], (), isotropic(decay),
                                       NO_ENDS, 0.0)
    assert [n for n, _ in exc.value.history] == [32, 64]
    assert exc.value.history[1][1] == fine
    assert all(np.isfinite(value) for _, value in exc.value.history)
    assert str(exc.value) == "radial integral is not finite"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integral_reports_history():
    quad = QuadratureSpec(n_r=100)
    with pytest.raises(ConvergenceError) as exc:
        integrate(lambda r: np.full_like(r, np.inf), quad)
    assert [n for n, _ in exc.value.history] == [50, 100]


def tilted_sweep(n_r_values, n_ang=3):
    """The GridSet of n_r_values and a density on its grids that each
    direction scales by its own factor within 1e-3 of 1, as fresh arrays."""
    quad = QuadratureSpec(n_ang=n_ang, tol=1e-2)
    grid_set = sweep_grids(quad, n_r_values)
    tilt = np.linspace(1.0, 1.001, n_ang)
    return quad, grid_set, [np.exp(-r)[:, None] * tilt[:k]
                            for r, _, k in grid_set.grids]


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
    NaN direction term; the message names that grid and the NaN's radius."""
    quad, grids, densities = tilted_sweep(sweep)
    densities[0][7, 2] = np.nan
    with pytest.raises(ConvergenceError) as exc:
        integrate_radial(quad, grids.n_r_values, (),
                         given_densities(grids, densities), NO_ENDS, 0.0)
    assert [n for n, _ in exc.value.history] == [sweep[0] // 2, sweep[0]]
    assert all(np.isfinite(value) for _, value in exc.value.history)
    (r, _, _), *_ = grids.grids
    assert str(exc.value) == (
        f"radial integral is not finite: the {len(r)}-node grid is not "
        f"finite at r = {float(r[7])!r}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coarse_grid_raises(bad):
    """A non-finite sample on the coarse grid of a row alone raises, rather
    than returning a non-finite error estimate; the history keeps the
    finite fine sum, and the message names the coarse grid and the first
    radius whose sample is not finite."""
    quad, grids, densities = tilted_sweep([64])
    densities[0][3, 0] = bad
    densities[0][9, 1] = bad
    with pytest.raises(ConvergenceError) as exc:
        integrate_radial(quad, grids.n_r_values, (),
                         given_densities(grids, densities), NO_ENDS, 0.0)
    (_, coarse), (_, fine) = exc.value.history
    assert not np.isfinite(coarse) and np.isfinite(fine)
    (r, _, _), *_ = grids.grids
    assert len(r) == 32
    assert str(exc.value) == (
        "radial integral is not finite: the 32-node grid is not finite at "
        f"r = {float(r[3])!r}")


def test_error_budgets_are_python_floats():
    """ROUNDOFF is a Python float, so the budgets built on it are Python
    floats like the values: convergence_table's tail bound, the errors of
    pontryagin_integral and bulk_action, and the mode sum's error."""
    quad = QuadratureSpec(n_r=64)
    [(_, value, error, tail)] = charclasses.convergence_table(
        MetricSpec(), quad, [64])
    budgets = [quadrature.ROUNDOFF, value, error, tail,
               *charclasses.pontryagin_integral(MetricSpec(), quad),
               *gauge.bulk_action(
                   InstantonData([InstantonChannel(0.3, 1.0)]), quad),
               eta.eta_mode_sum(0.3).error]
    assert [type(x) for x in budgets] == [float] * len(budgets)


def test_determinism_bitwise():
    quad = QuadratureSpec()
    f = lambda r: 1.0 / (1.0 + r) ** 2
    v1, _ = integrate(f, quad)
    v2, _ = integrate(f, quad)
    assert v1 == v2


def test_ordered_dot_adds_its_chunks_in_order():
    """Past _DOT_CHUNK terms the sum is the np.dot of each chunk of at
    most 8,192 terms, added in order, bit for bit.  The thread-count test
    of the reports reaches this loop only in a subprocess, and skips on
    one CPU."""
    a, b = np.random.default_rng(3).standard_normal((2, 20_000))
    chunks = [np.dot(a[i:j], b[i:j])
              for i, j in ((0, 8192), (8192, 16384), (16384, 20_000))]
    assert quadrature.ordered_dot(a, b) == (chunks[0] + chunks[1]) + chunks[2]


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_r=8)
    with pytest.raises(ValueError):
        QuadratureSpec(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(n_ang=1)
