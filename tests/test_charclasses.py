"""Pontryagin density, its Chern-Simons potential, and its radial
integral."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnindex import charclasses, geometry, jets, quadrature
from tnindex.charclasses import (PONT_NORM, chern_simons, convergence_table,
                                 density_knots, pontryagin_integral,
                                 pontryagin_scalar)
from tnindex.errors import ConvergenceError, IsotropyError
from tnindex.geometry import (BlendProfile, Gauge, MetricSpec, Variant,
                              curvature_batch, curvature_forms, wedge4)
from tnindex.quadrature import (GridSet, QuadratureSpec, angular_samples,
                                angular_spread, integrate_radial,
                                require_isotropy, sweep_grids)

TARGET = 1.0 / 12.0
ENDS = (QuadratureSpec().r_min, QuadratureSpec().r_max)


def exact_d_spec(kind="quintic"):
    return MetricSpec(variant=Variant.EXACT_D, blend=BlendProfile(kind=kind))


def test_zero_curvature_gives_zero_scalar():
    assert np.allclose(pontryagin_scalar(np.zeros((3, 4, 4, 4, 4))), 0.0)


def one_grid(spec, rs, n_ang):
    """The density at the radii rs and n_ang directions: _density_samples
    on that one grid, with the default quadrature's ends."""
    [samples], _ = charclasses._density_samples(spec, GridSet(
        [(np.asarray(rs, dtype=float), None, n_ang)], n_r_values=(),
        ends=ENDS))
    return samples


def density(spec, rs, quad):
    """rho at the radii rs, the mean over quad.n_ang directions, through
    the isotropy check of quad.tol."""
    samples = one_grid(spec, rs, quad.n_ang)
    mean, spread = angular_spread(samples)
    require_isotropy(samples, spread, quad.tol)
    return mean


def test_density_is_isotropic_and_decays():
    quad = QuadratureSpec()
    rho_mid, rho_far, rho_farther = density(exact_d_spec(),
                                            [3.0, 60.0, 120.0], quad)
    assert rho_mid != 0.0
    assert abs(rho_farther) < abs(rho_far) < 1e-4 * abs(rho_mid)


def test_integral_reaches_one_twelfth():
    """The integral's error is the row's error estimate plus its tail
    bound."""
    quad = QuadratureSpec(n_r=128)
    [(_, value, error, tail)] = convergence_table(exact_d_spec(), quad, [128])
    assert pontryagin_integral(exact_d_spec(), quad) == (value, error + tail)
    assert value == pytest.approx(TARGET, abs=1e-3)
    assert tail < 1e-4


ALL_METRICS = [(variant, kind) for variant in Variant
               for kind in ("quintic", "septic")]


@pytest.mark.parametrize("variant, kind", ALL_METRICS)
@pytest.mark.parametrize("l", [0.2, 1.0, 6.0])
def test_chern_simons_derivative_is_the_density(variant, kind, l):
    """P' from the jets of chern_simons is the curvature kernel's density
    within 1e-10 of its largest value, at 200 radii over the README grid."""
    spec = MetricSpec(variant=variant, t=0.6, blend=BlendProfile(kind=kind),
                      l=l)
    rs = np.geomspace(1e-4, 80.0, 200)
    rho = one_grid(spec, rs, 2).mean(axis=1)
    _, slope = chern_simons(spec, rs)
    assert np.all(np.abs(slope - rho) <= 1e-10 * np.abs(rho).max())


@pytest.mark.parametrize("variant, kind", ALL_METRICS)
def test_chern_simons_spans_one_twelfth(variant, kind):
    """P runs from 1/12 at the nut to 1/6 at infinity: the 1/12 lemma."""
    spec = MetricSpec(variant=variant, t=0.6, blend=BlendProfile(kind=kind))
    (p_nut, p_inf), _ = chern_simons(spec, [1e-12, 1e12])
    assert abs(p_inf - p_nut - TARGET) <= 1e-15


@pytest.mark.parametrize("variant", [Variant.TN, Variant.CONFORMAL])
@pytest.mark.parametrize("kind", ["quintic", "septic"])
@pytest.mark.parametrize("l", [0.2, 1.0, 3.0, 6.0])
def test_integral_meets_one_twelfth_within_its_bounds(variant, kind, l):
    """Where the quadrature is exact to roundoff, the ends and the roundoff
    bound carry the whole miss; fitted ends missed TN at l = 6 by 7.2e-7
    against a reported 7.5e-10."""
    spec = MetricSpec(variant=variant, blend=BlendProfile(kind=kind), l=l)
    value, error = pontryagin_integral(spec, QuadratureSpec())
    assert abs(value - TARGET) <= error


@pytest.mark.parametrize("variant, t", [(Variant.EXACT_D, 0.0)] + [
    (Variant.HOMOTOPY, k / 10.0) for k in range(11)])
@pytest.mark.parametrize("kind", ["quintic", "septic"])
def test_readme_sweep_misses_one_twelfth_by_at_most_24_ulps(variant, t, kind):
    """At l = 1 the density changes near r = 1/2, inside r_in, where C is
    Taub-NUT's 1/v bit for bit: the README sweep's last row misses 1/12 by
    at most 24 ulps of 1/12 (3.3e-16).  With C formed as exp(-log v)
    there, these rows missed by 39 to 55 ulps."""
    spec = MetricSpec(variant=variant, t=t, blend=BlendProfile(kind=kind))
    *_, (n, value, _, _) = convergence_table(spec, QuadratureSpec(),
                                             [64, 128, 256])
    assert n == 256
    assert abs(value - TARGET) <= 24 * math.ulp(TARGET)


# (variant, axis, a value where P is finite, the next power of ten up or
# down, where it is not): at l = 1, r_min below 8.6e-78 and, but for
# Taub-NUT, r_max above 1.16e77; at the README ends, l above 1.3e154
README_LIMITS = (
    [(variant, "r", 1e-77, 1e-78) for variant in Variant]
    + [(variant, "r", 1e76, 1e78) for variant in Variant
       if variant is not Variant.TN]
    + [(variant, "l", 1e154, 1e155) for variant in Variant])


@pytest.mark.parametrize("variant, axis, inside, outside", README_LIMITS)
def test_chern_simons_stays_finite_up_to_the_readme_limits(variant, axis,
                                                           inside, outside):
    """The overflow limits that README states for the sweep's ends,
    bracketed by a power of ten on each side, so that a rewrite of the
    metric coefficients cannot move them silently: along r, P at one
    radius at l = 1; along l, P at both README ends."""
    def ends(x):
        if axis == "r":
            return chern_simons(MetricSpec(variant=variant, t=0.6), [x])[0]
        return chern_simons(MetricSpec(variant=variant, t=0.6, l=x), ENDS)[0]

    with np.errstate(all="ignore"):
        assert np.isfinite(ends(inside)).all()
        assert not np.isfinite(ends(outside)).all()


def test_blend_independence():
    quad = QuadratureSpec(n_r=128)
    v_q, e_q = pontryagin_integral(exact_d_spec("quintic"), quad)
    v_s, e_s = pontryagin_integral(exact_d_spec("septic"), quad)
    assert abs(v_q - v_s) < 2.0 * (e_q + e_s) + 1e-4


def test_isotropy_violation_detected():
    """A deliberately tight tolerance flags the (tiny) angular spread."""
    quad = QuadratureSpec(tol=1e-16)
    with pytest.raises(IsotropyError):
        density(exact_d_spec(), [3.0], quad)


def _check_points(rs, n_ang):
    """The Cartesian points _density_samples evaluates, radius-major."""
    thetas, phis = angular_samples(n_ang)
    st, r_col = np.sin(thetas), rs[:, None]
    return np.stack([r_col * st * np.cos(phis), r_col * st * np.sin(phis),
                     r_col * np.cos(thetas)], axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["quintic", "septic"])
@pytest.mark.parametrize("l", [0.5, 1.0, 3.0])
def test_density_matches_frame_route(variant, kind, l):
    """The coordinate 2-form trace against the frame route: the full frame
    Riemann tensor through pontryagin_scalar times the level-set volume
    sqrt(A^3 C) 8 pi^2 r^2, within 1e-12 of each point's scale, the same
    volume times the squared norm of its frame Riemann tensor."""
    spec = MetricSpec(variant=variant, t=0.6, blend=BlendProfile(kind=kind),
                      l=l)
    rng = np.random.default_rng(17)
    rs = np.exp(rng.uniform(np.log(1e-4), np.log(80.0), 24))
    density = one_grid(spec, rs, 2).ravel()
    riem, _, _, _ = curvature_batch(spec, _check_points(rs, 2))
    r = np.repeat(rs, 2)
    a_coeff, c_coeff = geometry._radial_coeffs(spec, r)
    volume = PONT_NORM * np.sqrt(a_coeff**3 * c_coeff) * 8.0 * np.pi**2 * r * r
    oracle = pontryagin_scalar(riem) * volume
    scale = (riem**2).sum(axis=(1, 2, 3, 4)) * volume
    assert np.all(scale > 0)
    assert np.all(np.abs(density - oracle) <= 1e-12 * scale)


def test_density_bits_independent_of_chunk(monkeypatch):
    """A point's density has the same bits in a chunk of one, of seven and
    of the default size."""
    spec = MetricSpec(variant=Variant.HOMOTOPY, t=0.4,
                      blend=BlendProfile(kind="septic"))
    rs = np.geomspace(1e-4, 80.0, 45)
    whole = one_grid(spec, rs, 3)
    for chunk in (1, 7):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        assert np.array_equal(one_grid(spec, rs, 3), whole)


def _count_chunks(monkeypatch):
    """Record the number of points of every curvature_forms call that
    geometry.curvature_form_chunks makes."""
    points = []

    def counting(spec, xyz, *args):
        points.append(len(xyz))
        return curvature_forms(spec, xyz, *args)

    monkeypatch.setattr(geometry, "curvature_forms", counting)
    return points


def test_density_samples_evaluate_points_in_chunks(monkeypatch):
    """The radius x angle points are evaluated together, flattened, in
    chunks of at most _CHUNK points: just over one chunk of them take
    two."""
    points = _count_chunks(monkeypatch)
    n_r = geometry._CHUNK // 3 + 1
    rs = np.geomspace(0.5, 60.0, n_r)
    samples = one_grid(exact_d_spec(), rs, 3)
    assert samples.shape == (n_r, 3)
    assert points == [geometry._CHUNK, 3 * n_r - geometry._CHUNK]


def _count_radial_passes(monkeypatch):
    """Record the number of radii of every _radial_coeffs call."""
    calls = []
    radial = geometry._radial_coeffs

    def counting(spec, r):
        calls.append(r.val.size)
        return radial(spec, r)

    monkeypatch.setattr(geometry, "_radial_coeffs", counting)
    return calls


def test_density_samples_form_radial_jets_once(monkeypatch):
    """A and C run on one radial jet per _density_samples call, whatever
    the number of chunks, over the radii of every point of every grid and
    of the two ends.  The chunks that lift its slices keep the bits of
    chunks that form their own, and the ends keep the bits of
    chern_simons."""
    calls = _count_radial_passes(monkeypatch)
    spec, rs = exact_d_spec(), np.geomspace(0.5, 60.0, 100)
    other, quad = np.geomspace(0.7, 50.0, 20), QuadratureSpec()
    for chunk in (geometry._CHUNK, 7):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        calls.clear()
        one_grid(spec, rs, 3)
        assert calls == [300 + 2]
        calls.clear()
        [checked, alone], ends = charclasses._density_samples(
            spec, GridSet([(rs, None, 3), (other, None, 1)], n_r_values=(),
                          ends=(quad.r_min, quad.r_max)))
        assert calls == [300 + 20 + 2]
        alone_ref = one_grid(spec, other, 1)
        assert np.array_equal(checked, one_grid(spec, rs, 3))
        assert np.array_equal(alone, alone_ref)
        p_ends = chern_simons(spec, [quad.r_min, quad.r_max])[0]
        assert ends == tuple([float(p)] for p in p_ends)
        assert [type(p) for p, in ends] == [float, float]
    xyz = _check_points(rs, 3)
    chart = geometry._seed_chart(xyz, Gauge.DEFAULT)
    radii = np.concatenate([chart[0].val, [1e-4, 80.0]])
    radial = geometry._radial_coeffs(spec, jets.seed(radii))
    monkeypatch.setattr(geometry, "_CHUNK", 128)
    chunks = list(geometry.curvature_form_chunks(
        spec, xyz, [*(y[:len(xyz)] for y in radial), *chart]))
    assert len(chunks) == 3
    for k, forms in enumerate(chunks):
        assert np.array_equal(forms,
                              curvature_forms(spec, xyz[128 * k:128 * (k + 1)]))


def test_convergence_table_samples_each_grid_once(monkeypatch):
    """Sweep [32, 64] needs the grids 16, 32 (twice) and 64; the shared
    grid 32 is sampled once, at one direction, and the coarsest grid 16 at
    the n_ang directions of the isotropy check.  Every row has the value
    and error bits of a one-row table of its own; the first row checks the
    same grid alone, so its tail bound keeps its bits too."""
    quad = QuadratureSpec(n_r=64, n_ang=2)
    spec = exact_d_spec()
    points = _count_chunks(monkeypatch)
    rows = convergence_table(spec, quad, [32, 64])
    assert sum(points) == quad.n_ang * 16 + 32 + 64
    for row in rows:
        [alone] = convergence_table(spec, quad, [row[0]])
        assert alone[:3] == row[:3]
    assert convergence_table(spec, quad, [32]) == rows[:1]


@pytest.mark.parametrize("variant", [Variant.TN, Variant.EXACT_D])
def test_checked_grid_keeps_the_bits_of_one_direction(variant):
    """The checked grid's first direction is its value, with the bits of
    the same grid sampled at one direction: a row whose coarse grid a
    one-row table checks has the value and error of that row in a sweep
    that checks a coarser grid."""
    spec, quad = MetricSpec(variant=variant), QuadratureSpec()
    for sweep in ([32, 64], [64, 128]):
        [alone] = convergence_table(spec, quad, sweep[1:])
        assert alone[:3] == convergence_table(spec, quad, sweep)[1][:3]


def test_convergence_table_checks_isotropy(monkeypatch):
    """A deliberately tight tolerance flags the angular spread of the
    coarsest grid before any grid is summed, after the one pass over the
    sweep's points: grid 16 at the n_ang directions, 32 and 64 at one."""
    quad = QuadratureSpec(n_r=64, tol=1e-16)
    points = _count_chunks(monkeypatch)
    sums = []
    monkeypatch.setattr(quadrature, "ordered_dot",
                        lambda *args: sums.append(args))
    with pytest.raises(IsotropyError):
        convergence_table(exact_d_spec(), quad, [64, 32])
    assert sum(points) == quad.n_ang * 16 + 32 + 64
    assert sums == []


def test_convergence_table_refuses_a_nan_direction(monkeypatch):
    """A NaN curvature density in a direction other than the first of the
    checked grid raises ConvergenceError; it does not come out as a NaN
    tail_bound."""
    sample = charclasses._density_samples

    def poisoned(*args):
        densities, ends = sample(*args)
        densities[0] = densities[0].copy()
        densities[0][5, 1] = np.nan
        return densities, ends

    monkeypatch.setattr(charclasses, "_density_samples", poisoned)
    with pytest.raises(ConvergenceError):
        convergence_table(exact_d_spec(), QuadratureSpec(n_r=64), [32, 64])


def chern_simons_ends(spec, quad):
    """([P(r_min)], [P(r_max)]) of chern_simons, as Python floats."""
    p_ends, _ = chern_simons(spec, [quad.r_min, quad.r_max])
    return tuple([float(p)] for p in p_ends)


def _grid_by_grid_rows(spec, quad, n_r_values):
    """convergence_table's rows with each distinct grid sampled by a
    _density_samples call of its own and the ends taken from chern_simons,
    through the one driver."""
    def sample(grids):
        return ([one_grid(spec, rs, k) for rs, _, k in grids.grids],
                chern_simons_ends(spec, quad))

    return integrate_radial(quad, n_r_values, density_knots(spec), sample,
                            ([TARGET], [1.0 / 6.0]), 0.0)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["quintic", "septic"])
def test_readme_sweep_makes_one_radial_and_one_curvature_pass(
        monkeypatch, variant, kind):
    """A README sweep evaluates its 704 points (grid 32 at 8 directions,
    64, 128 and 256 at one) in one _density_samples call: one radial pass
    over their radii and the two ends, 706 in all, then two full chunks.
    Its rows keep the bits of a sweep that samples grid by grid."""
    spec = MetricSpec(variant=variant, t=0.6, blend=BlendProfile(kind=kind))
    quad, sweep = QuadratureSpec(), [64, 128, 256]
    calls, points = _count_radial_passes(monkeypatch), _count_chunks(
        monkeypatch)
    rows = convergence_table(spec, quad, sweep)
    assert calls == [706]
    assert points == [352, 352]
    assert np.array(rows).tobytes() == np.array(
        _grid_by_grid_rows(spec, quad, sweep)).tobytes()


README_GRID = [(variant, kind, l) for variant in Variant
               for kind in ("quintic", "septic") for l in (0.2, 1.0, 3.0, 6.0)]


def _mean_rows(spec, quad, n_r_values):
    """(value, error, tail_bound) of each row, every grid taken as the mean
    of quad.n_ang directions through the isotropy check of quad.tol, so
    with no direction term."""
    def sample(grids):
        return ([density(spec, rs, quad)[:, None] for rs, _, _ in grids.grids],
                chern_simons_ends(spec, quad))

    return [row[1:] for row in integrate_radial(
        quad, n_r_values, density_knots(spec), sample,
        ([TARGET], [1.0 / 6.0]), 0.0)]


def test_one_direction_is_within_its_direction_term():
    """Over the README grid of 32 metrics, each row's one-direction value
    is within the checked grid's sum |w spread| of the all-direction mean
    on the same grids, and the row's tail bound carries that term.  Every
    row is within its bounds against 1/12, under the mean and under one
    direction."""
    quad, sweep = QuadratureSpec(), [64, 128, 256]
    for variant, kind, l in README_GRID:
        spec = MetricSpec(variant=variant, t=0.6,
                          blend=BlendProfile(kind=kind), l=l)
        rs, ws, _ = sweep_grids(quad, sweep, density_knots(spec)).grids[0]
        checked = one_grid(spec, rs, quad.n_ang)
        spread = np.abs(checked - checked.mean(axis=1)[:, None]).max(axis=1)
        direction = spread @ ws
        rows = convergence_table(spec, quad, sweep)
        for (n, value, error, tail), mean in zip(
                rows, _mean_rows(spec, quad, sweep)):
            where = (variant, kind, l, n)
            assert abs(value - mean[0]) <= direction, where
            assert direction <= tail, where
            assert abs(mean[0] - TARGET) <= mean[1] + mean[2], where
            assert abs(value - TARGET) <= error + tail, where


def test_a_readme_row_is_within_its_error_of_one_twelfth():
    """The n_r 256 row of the README sweep for Homotopy quintic at l = 3,
    t = 0.6 misses 1/12 by 0.099 of error + tail bound, on grids cut at
    the blend knots."""
    spec = MetricSpec(variant=Variant.HOMOTOPY, t=0.6, l=3.0,
                      blend=BlendProfile(kind="quintic"))
    *_, (n, value, error, tail) = convergence_table(
        spec, QuadratureSpec(), [64, 128, 256])
    assert n == 256
    assert abs(value - TARGET) <= error + tail


@given(variant=st.sampled_from(Variant),
       kind=st.sampled_from(["quintic", "septic"]),
       l=st.floats(np.log(1e-3), np.log(1e3)).map(np.exp),
       t=st.floats(0.0, 1.0), r_max=st.floats(20.0, 120.0),
       n_r=st.sampled_from([64, 128, 256]))
@example(variant=Variant.HOMOTOPY, kind="quintic", l=0.01, t=0.6,
         r_max=80.0, n_r=128)
@settings(max_examples=40, deadline=None)
def test_every_sweep_row_is_within_its_bounds(variant, kind, l, t, r_max,
                                              n_r):
    """Over the whole metric domain, every row of a sweep 64, ..., n_r
    misses 1/12 by at most its error estimate plus its tail bound.  Since
    value - 1/12 is the middle sum's miss of P(r_max) - P(r_min), up to
    the roundoff the tail bound carries, this checks the radial rule
    against the Chern-Simons transgression.  On grids uncut at the blend
    knots, the example's n_r 128 row misses by 12.7 times its bounds."""
    spec = MetricSpec(variant=variant, t=t, blend=BlendProfile(kind=kind),
                      l=l)
    quad = QuadratureSpec(r_max=r_max, n_r=n_r, n_ang=2)
    sweep = [n for n in (64, 128, 256) if n <= n_r]
    for n, value, error, tail in convergence_table(spec, quad, sweep):
        assert abs(value - TARGET) <= error + tail, n


def _used_workspaces(monkeypatch):
    """Record the working arrays of every geometry._workspace call."""
    used = []
    workspace = geometry._workspace

    def recording(n):
        arrays = workspace(n)
        used.append(arrays)
        return arrays

    monkeypatch.setattr(geometry, "_workspace", recording)
    return used


def test_a_kernel_call_reads_nothing_of_the_one_before(monkeypatch):
    """With every working array filled with NaN between two calls, a sweep
    (one full chunk and a short one) and curvature_batch give the same
    bytes, and no returned array is a working array."""
    spec = MetricSpec(variant=Variant.HOMOTOPY, t=0.6,
                      blend=BlendProfile(kind="septic"))
    quad, sweep = QuadratureSpec(n_r=256, n_ang=3), [128, 256]
    xyz = _check_points(np.geomspace(1e-4, 80.0, 7), 3)
    used = _used_workspaces(monkeypatch)

    def outputs():
        return [np.array(convergence_table(spec, quad, sweep)),
                *curvature_batch(spec, xyz), curvature_forms(spec, xyz)]

    first = outputs()
    assert {len(arrays[1][0, 0]) for arrays in used} == {
        geometry._CHUNK, 64 * 3 + 128 + 256 - geometry._CHUNK,
        len(xyz)}
    for arrays in used:
        for a in arrays:
            a.fill(np.nan)
    second = outputs()
    for mine, theirs in zip(second, first):
        assert mine.tobytes() == theirs.tobytes()
    for out in second[1:]:
        assert not any(np.shares_memory(out, a)
                       for arrays in used for a in arrays)


def test_caches_stay_bounded_and_read_only():
    """More grid sets than sweep_grids keeps, with the geometry kept on
    them, more blend profiles than a shared seed keeps and more chunk
    lengths than _workspace keeps leave each cache at its bound; every
    array a cache shares is read-only.  Conformal reads the blend but has
    no knot, so every blend shares the grid set of its quadrature."""
    quadrature._layout.cache_clear()
    geometry._workspace.cache_clear()
    sizes = quadrature._layout.cache_info().maxsize + 2
    blends = [BlendProfile(r_in=1.0 + 0.1 * k, kind=kind)
              for k in range(jets.SharedSeed.MAX_SHARED + 1)
              for kind in ("quintic", "septic")]
    quads = [QuadratureSpec(r_max=60.0 + k, n_r=32, n_ang=2 + k)
             for k in range(sizes)]
    for quad in quads:
        for blend in blends:
            convergence_table(MetricSpec(variant=Variant.CONFORMAL,
                                         blend=blend), quad, [16, 32])
    for cache in (quadrature._layout, geometry._workspace):
        info = cache.cache_info()
        assert info.currsize == info.maxsize
    hits = quadrature._layout.cache_info().hits
    grid_set = sweep_grids(quads[-1], [16, 32])
    radius, chart = grid_set.derived(charclasses._sweep_geometry)
    assert quadrature._layout.cache_info().hits == hits + 1
    assert list(radius._shared) == blends[-jets.SharedSeed.MAX_SHARED:]
    arrays = [grid_set.points] + [a for y in (radius, radius.reciprocal(),
                                  radius.log(), *radius._shared.values(),
                                  *chart)
                      for a in (y.val, y.grad, y.hess)]
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


@pytest.mark.parametrize("kind", ["quintic", "septic"])
def test_rows_do_not_depend_on_the_cache_state(kind):
    """Rows from cleared caches, from warm caches and from caches that
    another variant or blend warmed have the same bytes."""
    quad, sweep = QuadratureSpec(), [64, 128, 256]
    spec = MetricSpec(variant=Variant.HOMOTOPY, t=0.6,
                      blend=BlendProfile(kind=kind))
    others = [MetricSpec(variant=Variant.CONFORMAL, blend=spec.blend),
              MetricSpec(variant=Variant.EXACT_D, blend=BlendProfile(
                  kind="septic" if kind == "quintic" else "quintic"))]

    def rows(*warm):
        for other in warm:
            convergence_table(other, quad, sweep)
        return np.array(convergence_table(spec, quad, sweep)).tobytes()

    quadrature._layout.cache_clear()
    geometry._workspace.cache_clear()
    cold = rows()
    assert rows() == cold
    for other in others:
        quadrature._layout.cache_clear()
        geometry._workspace.cache_clear()
        assert rows(other) == cold


def test_cached_grid_half_keeps_the_bits_of_an_uncached_chunk():
    """The density from the cached seed and chart jets of _sweep_geometry
    has the bits of curvature_forms on the same points, which forms its
    own radial and chart jets."""
    spec = MetricSpec(variant=Variant.EXACT_D, blend=BlendProfile(
        kind="septic"))
    rs = np.geomspace(1e-4, 80.0, 50)
    forms = curvature_forms(spec, _check_points(rs, 3))
    trace = sum(wedge4(forms, forms.swapaxes(1, 2)).reshape(16, -1))
    expect = (PONT_NORM * 8.0 * np.pi**2 * rs * rs)[:, None] \
        * trace.reshape(len(rs), 3)
    assert one_grid(spec, rs, 3).tobytes() == expect.tobytes()
