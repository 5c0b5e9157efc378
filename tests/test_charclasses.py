"""Pontryagin density, its Chern-Simons potential, and its radial
integral."""

import numpy as np
import pytest

from tnindex import charclasses, geometry, jets, quadrature
from tnindex.charclasses import (PONT_NORM, chern_simons, convergence_table,
                                 pontryagin_integral, pontryagin_scalar)
from tnindex.errors import ConvergenceError, IsotropyError
from tnindex.geometry import (BlendProfile, MetricSpec, Variant,
                              curvature_batch, curvature_forms,
                              radial_coefficients, wedge4)
from tnindex.quadrature import (ROUNDOFF, QuadratureSpec, angular_samples,
                                angular_spread, integrate_radial,
                                radial_nodes, require_isotropy, sweep_grids)

TARGET = 1.0 / 12.0


def exact_d_spec(kind="quintic"):
    return MetricSpec(variant=Variant.EXACT_D, blend=BlendProfile(kind=kind))


def test_zero_curvature_gives_zero_scalar():
    assert np.allclose(pontryagin_scalar(np.zeros((3, 4, 4, 4, 4))), 0.0)


def one_grid(spec, rs, n_ang):
    """The density at the radii rs and n_ang directions: _density_samples
    on that one grid, with no ends."""
    [samples], ends = charclasses._density_samples(
        spec, [(np.asarray(rs, dtype=float), None, n_ang)], ())
    assert ends == ()
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
    a_coeff, c_coeff = radial_coefficients(spec, r)
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
        monkeypatch.setattr(charclasses, "_CHUNK", chunk)
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
    n_r = charclasses._CHUNK // 3 + 1
    rs = np.geomspace(0.5, 60.0, n_r)
    samples = one_grid(exact_d_spec(), rs, 3)
    assert samples.shape == (n_r, 3)
    assert points == [charclasses._CHUNK, 3 * n_r - charclasses._CHUNK]


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
    of the ends, if any.  The chunks that lift its slices keep the
    bits of chunks that form their own, and the ends keep the bits of
    chern_simons."""
    calls = _count_radial_passes(monkeypatch)
    spec, rs = exact_d_spec(), np.geomspace(0.5, 60.0, 100)
    other, quad = np.geomspace(0.7, 50.0, 20), QuadratureSpec()
    for chunk in (charclasses._CHUNK, 7):
        monkeypatch.setattr(charclasses, "_CHUNK", chunk)
        calls.clear()
        one_grid(spec, rs, 3)
        assert calls == [300]
        calls.clear()
        [checked, alone], ends = charclasses._density_samples(
            spec, [(rs, None, 3), (other, None, 1)],
            (quad.r_min, quad.r_max))
        assert calls == [300 + 20 + 2]
        alone_ref = one_grid(spec, other, 1)
        assert np.array_equal(checked, one_grid(spec, rs, 3))
        assert np.array_equal(alone, alone_ref)
        assert ends == tuple(chern_simons(spec, [quad.r_min, quad.r_max])[0])
    xyz = _check_points(rs, 3)
    radii = np.concatenate([geometry._point_radii(xyz), [1e-4, 80.0]])
    radial = geometry._radial_coeffs(spec, jets.seed(radii))
    chunks = list(geometry.curvature_form_chunks(
        spec, xyz, 128, [y[:len(xyz)] for y in radial]))
    assert len(chunks) == 3
    for k, forms in enumerate(chunks):
        assert np.array_equal(forms,
                              curvature_forms(spec, xyz[128 * k:128 * (k + 1)]))


def test_density_samples_without_ends_check_none(monkeypatch):
    """With no ends, _density_samples runs no Chern-Simons end check and
    returns () for them; its densities keep the bits of the call with
    ends."""
    spec, quad = exact_d_spec(), QuadratureSpec(n_r=64)
    grids = sweep_grids(quad, [32, 64])
    with_ends, ends = charclasses._density_samples(
        spec, grids, (quad.r_min, quad.r_max))
    assert len(ends) == 2

    def refuse(*args):
        raise AssertionError("an end check with no ends")

    monkeypatch.setattr(charclasses, "_chern_simons_bracket", refuse)
    densities, no_ends = charclasses._density_samples(spec, grids, ())
    assert no_ends == ()
    assert [d.tobytes() for d in densities] == \
        [d.tobytes() for d in with_ends]


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


def _grid_by_grid_rows(spec, quad, n_r_values):
    """convergence_table's rows with each distinct grid sampled by a
    _density_samples call of its own and the ends taken from chern_simons."""
    (p_min, p_max), _ = chern_simons(spec, [quad.r_min, quad.r_max])
    grids = sweep_grids(quad, n_r_values)
    densities = [one_grid(spec, rs, k) for rs, _, k in grids]
    return [(n, middle + (float(p_min) - TARGET)
             + (1.0 / 6.0 - float(p_max)), error, direction
             + ROUNDOFF * (mass + abs(p_min) + abs(p_max)))
            for n, middle, error, direction, mass
            in integrate_radial(grids, densities, quad, n_r_values)]


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
    of quad.n_ang directions through the isotropy check of quad.tol."""
    (p_min, p_max), _ = chern_simons(spec, [quad.r_min, quad.r_max])
    grids = sweep_grids(quad, n_r_values)
    means = [density(spec, rs, quad)[:, None] for rs, _, _ in grids]
    return [(middle + (p_min - TARGET) + (1.0 / 6.0 - p_max), error,
             ROUNDOFF * (mass + abs(p_min) + abs(p_max)))
            for _, middle, error, _, mass
            in integrate_radial(grids, means, quad, n_r_values)]


def test_one_direction_is_within_its_direction_term():
    """Over the README grid of 32 metrics, each row's one-direction value
    is within the checked grid's sum |w spread| of the all-direction mean
    on the same grids, and the row's tail bound carries that term.  No row
    within its bounds against 1/12 under the mean leaves them, and a row
    beyond them keeps its ratio of miss to error + tail bound."""
    quad, sweep = QuadratureSpec(), [64, 128, 256]
    for variant, kind, l in README_GRID:
        spec = MetricSpec(variant=variant, t=0.6,
                          blend=BlendProfile(kind=kind), l=l)
        rs, ws = radial_nodes(quad, min(sweep) // 2)
        checked = one_grid(spec, rs, quad.n_ang)
        spread = np.abs(checked - checked.mean(axis=1)[:, None]).max(axis=1)
        direction = spread @ ws
        rows = convergence_table(spec, quad, sweep)
        for (n, value, error, tail), mean in zip(
                rows, _mean_rows(spec, quad, sweep)):
            where = (variant, kind, l, n)
            assert abs(value - mean[0]) <= direction, where
            assert direction <= tail, where
            ratio = abs(value - TARGET) / (error + tail)
            was = abs(mean[0] - TARGET) / (mean[1] + mean[2])
            assert ratio <= 1.0 if was <= 1.0 else \
                ratio == pytest.approx(was, rel=1e-4), where


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
        charclasses._CHUNK, 64 * 3 + 128 + 256 - charclasses._CHUNK,
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


def _sweep_key(quad, sweep):
    """The _sweep_geometry arguments of a convergence_table call."""
    return (quadrature.grid_set_key(sweep_grids(quad, sweep)),
            (quad.r_min, quad.r_max))


def test_caches_stay_bounded_and_read_only():
    """More grid sets than _sweep_geometry keeps, more blend profiles than
    a shared seed keeps and more chunk lengths than _workspace keeps leave
    each cache at its bound; every array a cache shares is read-only."""
    charclasses._sweep_geometry.cache_clear()
    geometry._workspace.cache_clear()
    sizes = charclasses._sweep_geometry.cache_info().maxsize + 2
    blends = [BlendProfile(r_in=1.0 + 0.1 * k, kind=kind)
              for k in range(jets.SharedSeed.MAX_SHARED + 1)
              for kind in ("quintic", "septic")]
    quads = [QuadratureSpec(r_max=60.0 + k, n_r=32, n_ang=2 + k)
             for k in range(sizes)]
    for quad in quads:
        for blend in blends:
            convergence_table(MetricSpec(variant=Variant.EXACT_D,
                                         blend=blend), quad, [16, 32])
    for cache in (charclasses._sweep_geometry, geometry._workspace):
        info = cache.cache_info()
        assert info.currsize == info.maxsize
    xyz, radius, chart = charclasses._sweep_geometry(
        *_sweep_key(quads[-1], [16, 32]))
    assert charclasses._sweep_geometry.cache_info().hits > 0
    assert list(radius._shared) == blends[-jets.SharedSeed.MAX_SHARED:]
    arrays = [xyz] + [a for y in (radius, radius.reciprocal(),
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

    charclasses._sweep_geometry.cache_clear()
    geometry._workspace.cache_clear()
    cold = rows()
    assert rows() == cold
    for other in others:
        charclasses._sweep_geometry.cache_clear()
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
