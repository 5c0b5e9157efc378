"""Model instanton channels: connections, duality, bulk action, boundary
data."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnindex import gauge, quadrature
from tnindex.errors import ChartError, DomainError, GenericityError
from tnindex.gauge import (InstantonChannel, InstantonData, boundary_data,
                           bulk_action, bulk_action_closed_form,
                           field_strength_array, field_strength_at,
                           field_strength_coeff, model_connection_at)
from tnindex.geometry import (PAIRS, Gauge, Point, chart_omega, star3,
                              two_form_matrix, wedge4)
from tnindex.quadrature import (GridSet, QuadratureSpec, angular_points,
                                angular_samples)

RNG = np.random.default_rng(11)


def random_point(r_lo=0.2, r_hi=20.0):
    return Point.from_polar(float(RNG.uniform(r_lo, r_hi)),
                            float(RNG.uniform(0.3, np.pi - 0.3)),
                            float(RNG.uniform(0.0, 2.0 * np.pi)))


# ---------------------------------------------------------------------------
# Channel and data validation


def test_chern_must_be_integer():
    with pytest.raises(ValueError):
        InstantonChannel(lam=0.3, mcharge=1.0, chern=0.5)
    with pytest.raises(ValueError):
        InstantonChannel(lam=0.3, mcharge=1.0, chern=float("inf"))
    assert InstantonChannel(lam=0.3, mcharge=1.0, chern=2.0).chern == 2


@pytest.mark.parametrize("bad", [{"lam": float("nan")},
                                 {"mcharge": float("inf")},
                                 {"mcharge": -float("inf")}])
def test_channel_numbers_must_be_finite(bad):
    [name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        InstantonChannel(**{"lam": 0.3, "mcharge": 1.0, **bad})


def test_genericity_rejected_on_demand():
    ch = InstantonChannel(lam=1.0000001, mcharge=0.5)
    with pytest.raises(GenericityError):
        ch.check_generic()


def test_lambdas_pairwise_distinct():
    with pytest.raises(ValueError):
        InstantonData([InstantonChannel(0.3, 1.0), InstantonChannel(0.3, 2.0)])


# ---------------------------------------------------------------------------
# Connection coefficient and 1-form


def test_coefficient_substitution():
    # (dtau + omega) coefficient at lam = 0, m = 1, r = 0.5 equals 1/2
    ch = InstantonChannel(lam=0.0, mcharge=1.0)
    a = model_connection_at(ch, Point.from_polar(0.5, 1.0, 0.2))
    assert a[3] == pytest.approx(0.5)


def test_lam_equals_m_fiber_coefficient_is_constant():
    """At lam = m the (dtau + omega) coefficient of a is lam at every r; the
    monopole term -m omega only touches a[:3]."""
    ch = InstantonChannel(lam=1.3, mcharge=1.3)
    for r in (0.2, 1.0, 7.0):
        p = Point.from_polar(r, 1.1, 0.4)
        a = model_connection_at(ch, p)
        assert a[3] == pytest.approx(1.3, abs=1e-14)
        assert gauge._radial_coefficients(ch.lam, ch.mcharge, 1.0, r)[1] \
            == pytest.approx(1.3)


def test_asymptotic_coefficient_is_lambda():
    ch = InstantonChannel(lam=0.4, mcharge=2.0)
    a = model_connection_at(ch, Point.from_polar(1e7, 1.0, 0.1))
    assert a[3] == pytest.approx(0.4, abs=1e-6)


def test_connection_axis_chart_error():
    ch = InstantonChannel(lam=0.3, mcharge=1.0)
    with pytest.raises(ChartError):
        model_connection_at(ch, Point(0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Field strength


def test_lam_equals_m_field_vanishes_with_monopole_term():
    ch = InstantonChannel(lam=0.7, mcharge=0.7)
    g = field_strength_coeff(ch, random_point())
    assert np.abs(g).max() < 1e-14


def test_field_strength_is_closed():
    """Numeric dF at a random point: sum of cyclic derivatives < 1e-10."""
    ch = InstantonChannel(lam=0.37, mcharge=1.4)
    p = random_point(1.0, 5.0)
    x = np.append(p.xyz(), p.tau)
    h = 1e-3

    def coeff(x4):
        return field_strength_coeff(ch, Point(*x4[:3], x4[3]))

    worst = 0.0
    for (a, b, c) in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        total = 0.0
        for (i, (j, k)) in [(a, (b, c)), (b, (c, a)), (c, (a, b))]:
            vals = []
            for step in (2 * h, h, -h, -2 * h):
                xs = x.copy()
                xs[i] += step
                vals.append(coeff(xs)[j, k])
            total += (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) \
                / (12.0 * h)
        worst = max(worst, abs(total))
    assert worst < 1e-10


def test_field_strength_is_the_derivative_of_the_connection():
    """G = da: the numeric exterior derivative of model_connection_at
    (4th-order stencil; nothing depends on tau) meets the closed-form G of
    field_strength_coeff to 1e-9."""
    ch = InstantonChannel(lam=0.37, mcharge=1.4)
    p = random_point(1.0, 5.0)
    h, da = 1e-3, np.zeros((4, 4))
    for i in range(3):
        vals = []
        for step in (2 * h, h, -h, -2 * h):
            x = p.xyz()
            x[i] += step
            vals.append(model_connection_at(ch, Point(*x, p.tau)))
        da[i] = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12.0 * h)
    assert np.abs((da - da.T) - field_strength_coeff(ch, p)).max() < 1e-9


def test_duality_at_fifty_random_points():
    defects = []
    types = set()
    ch = InstantonChannel(lam=0.37, mcharge=1.3)
    for _ in range(50):
        s = field_strength_at(ch, random_point())
        defects.append(min(s.asd_defect, s.sd_defect) / s.norm)
        types.add(s.duality_type)
    assert max(defects) < 1e-8
    assert len(types) == 1


# ---------------------------------------------------------------------------
# Batched field strength and bulk density against the per-point loop


def reference_g(ch, p, l=1.0):
    """The per-point closed form the array pass replaced: G from outer
    products of dr and dtau + omega, with omega in the default gauge."""
    r = p.r
    h = p.x3 / (2.0 * r * (p.x1**2 + p.x2**2))
    fib = np.array([-p.x2 * h, p.x1 * h, 0.0, 1.0])
    c = float(frozen_coefficient(ch, r, l))
    dc = float(frozen_dcoefficient(ch, r, l))
    dr = np.array([p.x1, p.x2, p.x3, 0.0]) / r
    grad_v = (-0.5 / r**2) * p.xyz() / r
    g_mat = dc * (np.outer(dr, fib) - np.outer(fib, dr))
    g_mat[:3, :3] += (c - ch.mcharge) * star3(grad_v)
    return g_mat


def reference_density(data, rs, n_ang, l=1.0):
    """The per-point loop over radii x angles x channels."""
    thetas, phis = angular_samples(n_ang)
    out = np.zeros((len(rs), n_ang))
    for j, (th, ph) in enumerate(zip(thetas, phis)):
        for i, r in enumerate(rs):
            p = Point.from_polar(r, th, ph)
            total = 0.0
            for ch in data.channels:
                g_mat = reference_g(ch, p, l)
                g = np.array([g_mat[i, j] for i, j in PAIRS])
                total += -wedge4(g, g)
            out[i, j] = -total * r * r
    return out


def frozen_coefficient(ch, r, l=1.0):
    """c of _radial_coefficients as it was written before the bulk path
    shared its radial factors: the bits that path must keep."""
    r = np.asarray(r, dtype=float)
    v = l + 0.5 / r
    return (l * ch.lam + ch.mcharge / (2.0 * r)) / v


def frozen_dcoefficient(ch, r, l=1.0):
    """_dcoefficient as it was written before the shared factors."""
    r = np.asarray(r, dtype=float)
    v = l + 0.5 / r
    dv = -0.5 / r**2
    num = l * ch.lam + ch.mcharge / (2.0 * r)
    dnum = -ch.mcharge / (2.0 * r**2)
    return (dnum * v - num * dv) / v**2


def frozen_wedge4(alpha, beta):
    """wedge4 as six products, also for the square of a form."""
    return (alpha[0] * beta[5] - alpha[1] * beta[4] + alpha[2] * beta[3]
            + alpha[3] * beta[2] - alpha[4] * beta[1] + alpha[5] * beta[0])


def one_pass_field_strength(ch, xyz, chart=Gauge.DEFAULT, l=1.0):
    """G in one pass per channel, geometry included, from the frozen
    coefficients: the expression that the split into a shared geometry
    part and a channel part must keep bit for bit."""
    r, omega = chart_omega(xyz, chart)
    x = np.moveaxis(np.asarray(xyz, dtype=float), -1, 0)
    c = frozen_coefficient(ch, r, l)
    dc = frozen_dcoefficient(ch, r, l)
    c_eff = c - ch.mcharge
    dr, fib = [*(x / r), 0.0], [*np.moveaxis(omega, -1, 0), 1.0]
    grad_v = (-0.5 / r**2) * x / r
    domega = {(0, 1): grad_v[2], (0, 2): -grad_v[1], (1, 2): grad_v[0]}
    pairs = []
    for i, j in PAIRS:
        entry = dc * (dr[i] * fib[j] - fib[i] * dr[j])
        pairs.append(entry + c_eff * domega[i, j] if j < 3 else entry)
    return np.stack(pairs)


def one_pass_density(data, rs, n_ang, l=1.0):
    """The bulk density from one_pass_field_strength per channel and the
    six-product wedge."""
    xyz = angular_points(rs, n_ang)
    total = np.zeros(xyz.shape[:-1])
    for ch in data.channels:
        g = one_pass_field_strength(ch, xyz, l=l)
        total -= frozen_wedge4(g, g)
    return -total * rs[:, None] * rs[:, None]


def bulk_density(data, rs, n_ang, l=1.0):
    """The bulk density at the radii rs and n_ang directions:
    _bulk_densities on that one grid, with no ends."""
    grid_set = GridSet([(rs, None, n_ang)], n_r_values=(), ends=())
    [density], ends = gauge._bulk_densities(data, grid_set, l)
    assert ends == []
    return density


def frozen_ends(data, ends, l):
    """Each channel's F = -(c - mcharge)^2 / 2 from the frozen c at the
    radii ends, one list of floats per end."""
    c_eff = np.array([frozen_coefficient(ch, ends, l) - ch.mcharge
                      for ch in data.channels]).T
    return (-0.5 * (c_eff * c_eff)).tolist()


def bulk_row(data, quad, sample):
    """The one row of integrate_radial at quad.n_r for the sampler, with
    the bulk's limits and scale written out channel by channel: 0 and
    -(lam - mcharge)^2 / 2, and sum (lam^2 + mcharge^2)."""
    limits = ([0.0] * data.rank,
              [-0.5 * ((ch.lam - ch.mcharge) * (ch.lam - ch.mcharge))
               for ch in data.channels])
    scale = sum(ch.lam * ch.lam + ch.mcharge * ch.mcharge
                for ch in data.channels)
    [row] = quadrature.integrate_radial(quad, [quad.n_r], (), sample, limits,
                                        scale)
    return row


def clear_caches():
    """Drop the cached grid sets and, with them, the geometry kept on
    them."""
    quadrature._layout.cache_clear()


FOUR_CHANNELS = InstantonData([
    InstantonChannel(0.3, 1.0), InstantonChannel(-0.45, -0.7),
    InstantonChannel(1.62, 2.1), InstantonChannel(0.81, 0.0)])
RADII = np.geomspace(1e-4, 80.0, 24)


def set_caches(cold, n_ang, quad=None):
    """Clear the grid and geometry caches and, unless cold, fill them again
    on RADII and on the grids of quad from another channel at another l:
    a cached entry must carry nothing of the call that filled it."""
    clear_caches()
    if not cold:
        other = InstantonData([InstantonChannel(2.2, -1.5)])
        bulk_density(other, RADII, n_ang, 3.0)
        if quad is not None:
            bulk_action(other, quad, 3.0)


@pytest.mark.parametrize("n_channels", [1, 4])
@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("l", [1.0, 2.5])
@pytest.mark.parametrize("n_ang", [3, 8])
def test_bulk_density_matches_per_point_loop(n_channels, cold, l, n_ang):
    data = InstantonData(FOUR_CHANNELS.channels[:n_channels])
    set_caches(cold, n_ang)
    batched = bulk_density(data, RADII, n_ang, l)
    expected = reference_density(data, RADII, n_ang, l)
    assert batched.shape == (len(RADII), n_ang)
    assert np.abs(batched - expected).max() <= \
        1e-14 * np.abs(expected).max()


def one_pass_densities(data, grid_set, l):
    """one_pass_density on every grid (r, w, directions) of the grid_set,
    and the frozen ends of each channel at its end radii."""
    return ([one_pass_density(data, r, k, l) for r, _, k in grid_set.grids],
            frozen_ends(data, grid_set.ends, l))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("l", [0.2, 1.0, 6.0])
@pytest.mark.parametrize("n_ang", [2, 5, 8])
def test_bulk_path_keeps_the_per_channel_bits(rank, cold, l, n_ang,
                                              monkeypatch):
    """The quadratic form over the cached wedges meets the frozen
    per-channel G^G density to roundoff, 1e-14 of its largest sample, on
    both grids of the bulk, and the bulk action on it meets the one on the
    frozen density within the roundoff the driver charges the frozen row;
    the ends -(c - mcharge)^2 / 2 keep the frozen bits.  The cache half
    stays bitwise: cleared caches and caches filled by another channel at
    another l give the same bytes."""
    data = InstantonData(FOUR_CHANNELS.channels[:rank])
    quad = QuadratureSpec(n_r=64, n_ang=n_ang)
    grids = quadrature.sweep_grids(quad, [quad.n_r])
    with monkeypatch.context() as m:
        m.setattr(gauge, "_bulk_densities", one_pass_densities)
        frozen_bulk = np.array(bulk_action(data, quad, l))
    clear_caches()
    densities, ends = gauge._bulk_densities(data, grids, l)
    bulk = np.array(bulk_action(data, quad, l))
    frozen, frozen_end_values = one_pass_densities(data, grids, l)
    for density, reference in zip(densities, frozen):
        assert density.shape == reference.shape
        assert np.abs(density - reference).max() <= \
            1e-14 * np.abs(reference).max()
    assert np.array(ends).tobytes() == np.array(frozen_end_values).tobytes()
    # the frozen row at one direction has no direction term: its tail
    # bound is the driver's roundoff alone
    *_, roundoff = bulk_row(data, quad, lambda grid_set: (
        [d[:, :1] for d in frozen], frozen_end_values))
    assert np.abs(bulk - frozen_bulk).max() <= roundoff
    set_caches(cold, n_ang, quad)
    again, again_ends = gauge._bulk_densities(data, grids, l)
    assert [d.tobytes() for d in again] == [d.tobytes() for d in densities]
    assert np.array(again_ends).tobytes() == np.array(ends).tobytes()
    assert np.array(bulk_action(data, quad, l)).tobytes() == bulk.tobytes()


def per_channel_bulk_action(data, quad, l):
    """bulk_action through the driver with each channel's ends formed on
    its own in Python floats, -(c - mcharge)^2 / 2 from the frozen c at
    r_min and r_max, and the limits and scale written out channel by
    channel (bulk_row)."""
    def sample(grid_set):
        densities, _ = gauge._bulk_densities(data, grid_set, l)
        c_eff = [[float(frozen_coefficient(ch, r, l)) - ch.mcharge
                  for ch in data.channels] for r in grid_set.ends]
        return densities, [[-0.5 * (c * c) for c in end] for end in c_eff]

    _, value, error, tail = bulk_row(data, quad, sample)
    return value, error + tail


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [0.2, 1.0, 6.0])
@pytest.mark.parametrize("n_ang", [2, 8])
def test_bulk_ends_keep_the_per_channel_bits(rank, l, n_ang):
    """The ends of _bulk_densities and the limits and scale of
    bulk_action give the bulk action of the per-channel ends, limits and
    scale byte for byte, as Python floats."""
    data = InstantonData(FOUR_CHANNELS.channels[:rank])
    quad = QuadratureSpec(n_ang=n_ang)
    value, error = bulk_action(data, quad, l)
    assert type(value) is float
    assert np.array([value, error]).tobytes() == \
        np.array(per_channel_bulk_action(data, quad, l)).tobytes()


def test_bulk_density_independent_of_batch():
    whole = bulk_density(FOUR_CHANNELS, RADII, 5)
    halves = [bulk_density(FOUR_CHANNELS, part, 5)
              for part in (RADII[:10], RADII[10:])]
    assert np.array_equal(whole, np.concatenate(halves))


def test_batched_field_strength_checks_every_point():
    ch = InstantonChannel(0.3, 1.0)
    xyz = np.array([[1.0, 0.5, 0.2], [0.0, 0.0, 2.0], [0.3, -1.0, 0.4]])
    with pytest.raises(ChartError):
        field_strength_array(ch, xyz)
    with pytest.raises(ChartError):
        field_strength_array(ch, -xyz, Gauge.NORTH)
    with pytest.raises(DomainError):
        field_strength_array(ch, np.array([[1.0, 0.5, 0.2], [0.0] * 3]),
                             Gauge.NORTH)
    # the north-axis point is regular in the north chart
    assert np.isfinite(field_strength_array(ch, xyz, Gauge.NORTH)).all()


@given(lam=st.floats(-3.0, 3.0), m=st.floats(-3.0, 3.0),
       l=st.floats(0.1, 5.0), r=st.floats(1e-3, 1e3),
       theta=st.floats(0.05, np.pi - 0.05), phi=st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=60, deadline=None)
def test_batched_field_strength_matches_closed_form(lam, m, l, r, theta, phi):
    ch = InstantonChannel(lam, m)
    p = Point.from_polar(r, theta, phi)
    expected = reference_g(ch, p, l)
    # the point sits in a batch with others; its G must not depend on them
    xyz = np.stack([p.xyz(), 2.0 * p.xyz(), [0.3, -1.0, 0.4]])
    g_mat = two_form_matrix(
        field_strength_array(ch, xyz, l=l)[:, 0])
    assert np.abs(g_mat - expected).max() <= \
        1e-14 * np.abs(expected).max()
    assert np.array_equal(g_mat, -np.swapaxes(g_mat, 0, 1))


@pytest.mark.parametrize("on_grid", [True, False])
@pytest.mark.parametrize("l", [1.0, 2.5])
def test_field_strength_array_bits_match_one_pass(on_grid, l):
    """field_strength_array keeps the bits of the one-pass expression in
    all three charts, on an angular grid and at a single point."""
    xyz = angular_points(RADII, 5) if on_grid \
        else Point.from_polar(0.7, 2.1, 4.0).xyz()
    for ch in FOUR_CHANNELS.channels:
        for points, chart in ((xyz, Gauge.DEFAULT), (xyz, Gauge.NORTH),
                              (-xyz, Gauge.SOUTH)):
            assert np.array_equal(
                field_strength_array(ch, points, chart, l),
                one_pass_field_strength(ch, points, chart, l))


def test_bulk_action_evaluates_geometry_once_per_grid(monkeypatch):
    """The channel-independent geometry is evaluated once per sampled grid
    and cached: on cleared caches rank 4 calls chart_omega as often as
    rank 1, and a repeat call on the same grids calls it no more."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return chart_omega(*args, **kwargs)

    def count(n_channels):
        calls.clear()
        bulk_action(InstantonData(FOUR_CHANNELS.channels[:n_channels]),
                    QuadratureSpec(n_r=64))
        return len(calls)

    monkeypatch.setattr(gauge, "chart_omega", counted)
    clear_caches()
    rank_one = count(1)
    clear_caches()
    assert count(4) == rank_one > 0
    assert count(4) == 0


def test_cached_grids_and_geometry_are_read_only(monkeypatch):
    """The caches are bounded; a bulk call looks its grid set up once and
    builds its geometry once, and an in-place write into a shared radial
    grid, into the set's points or into a shared geometry array fails.
    The geometry holds the three wedges at every point of both grids and
    the radial arrays at every node and at both ends."""
    clear_caches()
    for cache in (quadrature._layout, quadrature._legendre_rule):
        assert cache.cache_info().maxsize is not None
    builds = []
    field_geometry = gauge._field_strength_geometry

    def counted(*args):
        builds.append(1)
        return field_geometry(*args)

    monkeypatch.setattr(gauge, "_field_strength_geometry", counted)
    quad = QuadratureSpec(n_r=64)
    bulk_action(FOUR_CHANNELS, quad)
    bulk_action(FOUR_CHANNELS, quad)
    info = quadrature._layout.cache_info()
    assert (info.hits, info.misses, info.currsize, len(builds)) == \
        (1, 1, 1, 1)
    grids = quadrature.sweep_grids(quad, [quad.n_r])
    wedges, r, directions = grids.derived(gauge._bulk_geometry)
    assert len(builds) == 1
    assert wedges.shape == (3, 32 * quad.n_ang + 64)
    radial = [r, directions]
    assert {a.shape for a in radial} == {(32 + 64 + 2,)}
    assert list(directions) == [quad.n_ang] * 32 + [1] * 64 + [0, 0]
    for arr in [a for rs, w, _ in grids.grids for a in (rs, w)] \
            + [grids.points, wedges] + radial:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_bulk_forms_no_field_strength(monkeypatch):
    """The bulk evaluates its quadratic form on the cached wedges: no
    channel's G is formed on its path, and once its grid set is cached a
    call wedges nothing."""
    def refuse(*args):
        raise AssertionError("a per-channel G or wedge on the bulk path")

    quad = QuadratureSpec(n_r=64)
    exact = bulk_action_closed_form(FOUR_CHANNELS)
    monkeypatch.setattr(gauge, "field_strength_array", refuse)
    clear_caches()
    value, error = bulk_action(FOUR_CHANNELS, quad)
    assert abs(value - exact) <= error
    monkeypatch.setattr(gauge, "wedge4", refuse)
    assert bulk_action(FOUR_CHANNELS, quad) == (value, error)


# ---------------------------------------------------------------------------
# Bulk action


def test_bulk_vanishes_for_lam_equals_m():
    data = InstantonData([InstantonChannel(1.3, 1.3),
                          InstantonChannel(0.6, 0.6)])
    value, _ = bulk_action(data, QuadratureSpec(n_r=64))
    assert abs(value) < 1e-8


def test_bulk_matches_closed_form_within_estimate():
    quad = QuadratureSpec()
    data = InstantonData([InstantonChannel(0.25, 1.0)])
    value, error = bulk_action(data, quad)
    exact = bulk_action_closed_form(data)
    assert exact == pytest.approx(-0.5 * (0.25 - 1.0) ** 2)
    assert abs(value - exact) <= error


@given(l=st.floats(np.log(0.2), np.log(6.0)).map(np.exp),
       channels=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                         min_size=1, max_size=4, unique_by=lambda ch: ch[0]))
@settings(max_examples=40, deadline=None)
@example(l=1.0, channels=[(1.3, 1.3)])
@example(l=0.5, channels=[(0.7, 0.7 + 1e-9), (-2.0, 1.0)])
@example(l=2.0, channels=[(0.7, 0.7 + 1e-9)])
@example(l=1.0, channels=[(0.0, 5.6e-161)])
@example(l=1.0, channels=[(0.0, 1e-160)])
@example(l=1.0, channels=[(0.0, 1e-155)])
def test_bulk_meets_closed_form_at_any_l(l, channels):
    """c(infinity) = lam for every l, so the bulk meets the closed form in
    lam within its reported error; with the old holonomy lam/l the channels
    (0.3, 1) and (0.65, -2) at l = 2 missed by 0.71 against an error of
    0.04.  This holds for lam = m too, and the bulk never refuses.  A
    charge near 1e-160 gives a subnormal bulk, whose rounding only the
    floor's absolute term covers."""
    data = InstantonData([InstantonChannel(lam, m) for lam, m in channels])
    value, error = bulk_action(data, QuadratureSpec(), float(l))
    assert abs(value - bulk_action_closed_form(data)) <= error


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n_r", [16, 256])
def test_bulk_meets_closed_form_at_lam_equal_m(rank, l, n_r):
    """At lam = mcharge exactly the closed form is 0, and what the bulk
    sums is the rounding of c - mcharge, which scales with lam and
    mcharge, not with the mass or the ends.  The scale sum (lam^2 +
    mcharge^2) covers it: the bulk meets the closed form within its error.
    With a scale of 0, 16 of these 24 cases miss, by up to 38 times the
    error."""
    data = InstantonData([InstantonChannel(x, x)
                          for x in (0.3, -1.7, 2.45, -0.05)[:rank]])
    value, error = bulk_action(data, QuadratureSpec(n_r=n_r), l)
    assert abs(value - bulk_action_closed_form(data)) <= error


def all_direction_bulk(data, quad, l):
    """The bulk's row by the rule that sampled every grid at quad.n_ang
    directions, through the driver (bulk_row): the checked (half-size)
    grid at all of them, whose sum |w spread| is the direction term, the
    fine grid as their mean, and the frozen ends."""
    def sample(grid_set):
        (checked, _, _), (fine, _, _) = grid_set.grids
        mean = bulk_density(data, fine, quad.n_ang, l).mean(axis=1)
        return ([bulk_density(data, checked, quad.n_ang, l), mean[:, None]],
                frozen_ends(data, grid_set.ends, l))

    return bulk_row(data, quad, sample)


def count_bulk_points(monkeypatch):
    """The points of each _bulk_densities pass, in call order."""
    points, sample = [], gauge._bulk_densities

    def counted(data, grid_set, l):
        points.append(sum(len(r) * k for r, _, k in grid_set.grids))
        return sample(data, grid_set, l)

    monkeypatch.setattr(gauge, "_bulk_densities", counted)
    return points


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [0.2, 1.0, 6.0])
@pytest.mark.parametrize("n_ang", [2, 8])
def test_bulk_takes_one_direction_within_its_direction_term(rank, l, n_ang,
                                                            monkeypatch):
    """The bulk samples its fine grid at one direction and checks isotropy
    at quad.n_ang directions on the half-size grid only, in one pass over
    both grids: its value is within the all-direction row's tail bound of
    that row's mean, the direction term plus the roundoff that covers the
    rounding of the two sums, which can differ by more ulps than the
    direction term holds; its error carries that bound, and it meets the
    closed form within that error."""
    data = InstantonData(FOUR_CHANNELS.channels[:rank])
    quad = QuadratureSpec(n_ang=n_ang)
    _, mean, _, tail = all_direction_bulk(data, quad, l)
    points = count_bulk_points(monkeypatch)
    value, error = bulk_action(data, quad, l)
    assert points == [quad.n_r // 2 * n_ang + quad.n_r]
    assert abs(value - mean) <= tail <= error
    assert abs(value - bulk_action_closed_form(data)) <= error


def test_bulk_evaluates_the_checked_grid_and_the_fine_grid(monkeypatch):
    """At n_r 64 and n_ang 3 one bulk call evaluates 32 * 3 + 64 points in
    one pass."""
    points = count_bulk_points(monkeypatch)
    bulk_action(FOUR_CHANNELS, QuadratureSpec(n_r=64, n_ang=3))
    assert points == [32 * 3 + 64]


def test_bulk_stable_under_grid_doubling():
    data = InstantonData([InstantonChannel(0.0, 1.0)])
    v1, _ = bulk_action(data, QuadratureSpec(n_r=128))
    v2, _ = bulk_action(data, QuadratureSpec(n_r=256))
    assert np.isfinite(v1)
    assert abs(v2 - v1) < 1e-4


def test_bulk_additive_over_channels():
    quad = QuadratureSpec(n_r=64)
    a = InstantonData([InstantonChannel(0.25, 1.0)])
    b = InstantonData([InstantonChannel(0.6, -0.5)])
    v_a, _ = bulk_action(a, quad)
    v_b, _ = bulk_action(b, quad)
    v_ab, _ = bulk_action(InstantonData(a.channels + b.channels), quad)
    assert v_ab == pytest.approx(v_a + v_b, abs=1e-12)


def mixed_rank_four(rng, index):
    """A rank-4 document in perfbench's index mix: one channel within
    [2e-6, 0.03] of 0 or 1, one in each of (-1, 0), (0, 1) and (1, 2), and
    charges in {0, 1, 2} that cycle with index."""
    dist = 10.0 ** rng.uniform(math.log10(2e-6), math.log10(0.03))
    channels = [(rng.choice((0, 1)) + rng.choice((-1.0, 1.0)) * dist,
                 index // 3 % 3)]
    for k, n in enumerate((-1, 0, 1)):
        channels.append((n + rng.uniform(0.03, 0.97), (k + index) % 3))
    rng.shuffle(channels)
    return InstantonData([InstantonChannel(lam, float(m), -m)
                          for lam, m in channels])


@pytest.mark.parametrize("seed", [7919, 4243, 501])
def test_bulk_error_bounds_its_miss_on_mixed_documents(seed):
    """On 50 seeded rank-4 documents per seed at the default quadrature the
    bulk meets bulk_action_closed_form within its reported error; the
    worst miss over the three seeds is 0.059 of the error."""
    rng = random.Random(seed)
    for index in range(50):
        data = mixed_rank_four(rng, index)
        value, error = bulk_action(data, QuadratureSpec())
        assert abs(value - bulk_action_closed_form(data)) <= error


# ---------------------------------------------------------------------------
# Boundary data


def test_gap_examples():
    _, _, delta = boundary_data(InstantonData([InstantonChannel(0.3, 0.0),
                                               InstantonChannel(0.7, 0.0)]))
    assert delta == pytest.approx(0.15)
    _, _, delta = boundary_data(InstantonData([InstantonChannel(0.95, 0.0)]))
    assert delta == pytest.approx(0.025)


def test_reduction_mod_one():
    lams, cherns, delta = boundary_data(
        InstantonData([InstantonChannel(1.25, 0.0, 2)]))
    assert lams == [pytest.approx(0.25)]
    assert cherns == [2]
    assert delta == pytest.approx(0.125)


def test_boundary_rejects_integer_lambda_with_index():
    data = InstantonData([InstantonChannel(0.5, 0.0),
                          InstantonChannel(2.0 + 1e-9, 0.0)])
    with pytest.raises(GenericityError) as err:
        boundary_data(data)
    assert "channel 1" in str(err.value)
