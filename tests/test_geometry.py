"""Metric family, gauge potential, curvature, and Hodge star checks."""

import numpy as np
import pytest

from tnindex import charclasses, geometry
from tnindex.errors import ChartError, DomainError
from tnindex.gauge import InstantonChannel, field_strength_at
from tnindex.jets import Jet
from tnindex.geometry import (PAIRS, BlendProfile, Gauge, MetricSample,
                              MetricSpec, Point, Variant, curvature_at,
                              curvature_batch, hodge_star, metric_at,
                              potential_and_omega, radial_coefficients, star3,
                              two_form_matrix, wedge4)

RNG = np.random.default_rng(42)


def random_point(r_lo=0.3, r_hi=10.0):
    return Point.from_polar(float(RNG.uniform(r_lo, r_hi)),
                            float(RNG.uniform(0.3, np.pi - 0.3)),
                            float(RNG.uniform(0.0, 2.0 * np.pi)))


# ---------------------------------------------------------------------------
# Potential and omega


def test_potential_value():
    v, _ = potential_and_omega(Point.from_polar(0.5, 1.0, 0.3))
    assert v == pytest.approx(2.0)


def test_omega_vanishes_on_equator():
    _, omega = potential_and_omega(Point.from_polar(2.0, np.pi / 2, 1.1))
    assert np.allclose(omega, 0.0, atol=1e-14)


def _omega_j(x, j, gauge=Gauge.DEFAULT):
    return potential_and_omega(Point(*x, 0.0), gauge)[1][j]


def test_monopole_equation_at_random_points():
    """d(omega) = star3(dV) via numeric exterior derivative (4th-order
    stencil), 100 points."""
    h = 1e-3
    worst = 0.0
    for _ in range(100):
        p = random_point(0.5, 8.0)
        x = p.xyz()
        domega = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                vals = []
                for step in (2 * h, h, -h, -2 * h):
                    xs = x.copy()
                    xs[i] += step
                    vals.append(_omega_j(xs, j))
                domega[i, j] += (-vals[0] + 8 * vals[1]
                                 - 8 * vals[2] + vals[3]) / (12.0 * h)
        domega -= domega.T.copy()
        r = float(np.linalg.norm(x))
        grad_v = -0.5 * x / r**3
        worst = max(worst, float(np.abs(domega - star3(grad_v)).max()))
    assert worst < 1e-10


def test_gauges_share_field_strength():
    """The three omega gauges differ by exact forms: same d(omega)."""
    h = 1e-5
    x = np.array([0.8, 0.5, 0.9])

    def curl(gauge):
        domega = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                wp = potential_and_omega(Point(*xp, 0.0), gauge)[1][j]
                wm = potential_and_omega(Point(*xm, 0.0), gauge)[1][j]
                domega[i, j] += (wp - wm) / (2.0 * h)
        return domega - domega.T

    base = curl(Gauge.DEFAULT)
    assert np.allclose(curl(Gauge.NORTH), base, atol=1e-9)
    assert np.allclose(curl(Gauge.SOUTH), base, atol=1e-9)


def test_axis_needs_other_chart():
    axis = Point(0.0, 0.0, 0.5)
    with pytest.raises(ChartError):
        potential_and_omega(axis)
    v, omega = potential_and_omega(axis, Gauge.NORTH)
    assert v == pytest.approx(2.0)
    assert np.allclose(omega, 0.0)


def test_origin_rejected():
    with pytest.raises(DomainError):
        potential_and_omega(Point(0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Metric variants


def test_tn_metric_entries_on_axis():
    sample = metric_at(MetricSpec(variant=Variant.TN), Point(0.0, 0.0, 0.5),
                       Gauge.NORTH)
    assert sample.g[3, 3] == pytest.approx(0.5)
    assert sample.g[0, 0] == pytest.approx(2.0)
    assert sample.orthonormality_residual() < 1e-12


def test_tn_metric_flat_at_infinity():
    sample = metric_at(MetricSpec(variant=Variant.TN),
                       Point.from_polar(1e6, 1.2, 0.7))
    assert np.allclose(sample.g, np.eye(4), atol=1e-5)


def test_exact_d_fiber_coefficient():
    spec = MetricSpec(variant=Variant.EXACT_D, blend=BlendProfile())
    r = float(np.exp(3.0))
    a_coeff, c_coeff = radial_coefficients(spec, r)
    assert c_coeff == pytest.approx(np.exp(-6.0), rel=1e-9)
    # A r^2 = 1: dy^2 plus the unit round sphere in y = log r
    assert a_coeff * r * r == pytest.approx(1.0, rel=1e-9)


def test_conformal_is_scaled_tn_outside_blend():
    blend = BlendProfile()
    conf = MetricSpec(variant=Variant.CONFORMAL, blend=blend)
    tn = MetricSpec(variant=Variant.TN)
    for _ in range(5):
        p = random_point(blend.r_out + 0.5, 30.0)
        v, _ = potential_and_omega(p)
        g_c = metric_at(conf, p).g
        g_tn = metric_at(tn, p).g
        assert np.allclose(g_c, g_tn / (v * p.r**2), atol=1e-12)


def test_homotopy_t1_equals_conformal_outside_blend():
    blend = BlendProfile()
    hom = MetricSpec(variant=Variant.HOMOTOPY, t=1.0, blend=blend)
    conf = MetricSpec(variant=Variant.CONFORMAL, blend=blend)
    for _ in range(5):
        p = random_point(blend.r_out + 0.5, 30.0)
        assert np.allclose(metric_at(hom, p).g, metric_at(conf, p).g,
                           atol=1e-12)


@pytest.mark.parametrize("variant,t", [(Variant.CONFORMAL, 0.0),
                                       (Variant.HOMOTOPY, 0.4),
                                       (Variant.EXACT_D, 0.0)])
def test_all_variants_equal_tn_inside_blend(variant, t):
    blend = BlendProfile()
    spec = MetricSpec(variant=variant, t=t, blend=blend)
    tn = MetricSpec(variant=Variant.TN)
    for _ in range(5):
        p = random_point(0.3, blend.r_in - 0.1)
        assert np.array_equal(metric_at(spec, p).g, metric_at(tn, p).g)


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec(variant=Variant.TN, l=-1.0)
    with pytest.raises(ValueError):
        MetricSpec(variant=Variant.HOMOTOPY, t=1.5)
    with pytest.raises(ValueError):
        BlendProfile(r_in=4.0, r_out=2.0)
    with pytest.raises(ValueError):
        BlendProfile(kind="cubic")


@pytest.mark.parametrize("kind", ["quintic", "septic"])
def test_blend_scalar_array_and_jet_agree_bitwise(kind):
    """One Horner form: a float radius, an array of radii and the values of
    a jet give the same bits, inside, across and outside the blend."""
    blend = BlendProfile(kind=kind)
    rs = np.exp(np.random.default_rng(23).uniform(0.0, 2.0, 2000))
    array = blend(rs)
    assert np.array_equal(array, [blend(float(r)) for r in rs])
    assert np.array_equal(array, [blend(r) for r in rs])
    assert np.array_equal(array, blend(Jet.variable(rs, 0)).val)
    assert array.min() == 0.0
    assert array.max() == 1.0


def test_point_radius_matches_array_path():
    """Point.r squares with x*x, as the array path does."""
    xyz = np.random.default_rng(29).uniform(-5.0, 5.0, (20000, 3))
    r, _ = geometry.chart_omega(xyz)
    assert np.array_equal(r, [Point(*x).r for x in xyz])


# ---------------------------------------------------------------------------
# Curvature


def test_tn_is_ricci_flat():
    spec = MetricSpec(variant=Variant.TN)
    worst = 0.0
    for _ in range(20):
        sample = curvature_at(spec, random_point())
        worst = max(worst, float(np.abs(sample.ricci).max()))
        assert sample.bianchi_residual() < 1e-10
        assert sample.metric.orthonormality_residual() < 1e-12
    assert worst < 1e-10


def test_tn_ricci_flat_finite_differences():
    """Central differences with h = 1e-4 r: truncation ~ h^2 * curvature
    scale, asserted with bound 1e-6."""
    spec = MetricSpec(variant=Variant.TN)
    p = Point.from_polar(1.0, 1.1, 0.7)
    sample = curvature_at(spec, p, h=1e-4, method="fd")
    assert np.abs(sample.ricci).max() < 1e-6


def test_riemann_antisymmetry():
    sample = curvature_at(MetricSpec(variant=Variant.TN), random_point())
    r = sample.riemann
    assert np.allclose(r, -np.transpose(r, (1, 0, 2, 3)), atol=1e-14)
    assert np.allclose(r, -np.transpose(r, (0, 1, 3, 2)), atol=1e-14)
    assert np.allclose(r, np.transpose(r, (2, 3, 0, 1)), atol=1e-12)


def test_flat_limit_curvature():
    sample = curvature_at(MetricSpec(variant=Variant.TN),
                          Point.from_polar(1e6, 1.0, 0.5))
    assert np.abs(sample.riemann).max() < 1e-6


def _curvature_operator_eigs(spec, r):
    sample = curvature_at(spec, Point.from_polar(r, 1.0, 0.5))
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    m = np.array([[sample.riemann[a, b, c, d] for (c, d) in pairs]
                  for (a, b) in pairs])
    return np.sort(np.linalg.eigvalsh(0.5 * (m + m.T)))


def test_exact_d_curvature_settles_exponentially():
    """Far outside the blend the curvature operator's spectrum converges
    exponentially in y = log r to the product-plus-cusp limit."""
    spec = MetricSpec(variant=Variant.EXACT_D, blend=BlendProfile())
    e1 = _curvature_operator_eigs(spec, float(np.exp(2.5)))
    e2 = _curvature_operator_eigs(spec, float(np.exp(3.5)))
    e3 = _curvature_operator_eigs(spec, float(np.exp(4.5)))
    d1 = np.abs(e2 - e1).max()
    d2 = np.abs(e3 - e2).max()
    assert d2 < 0.6 * d1


def _log_radius_batch(seed, n=64):
    """Seeded Cartesian points with log-uniform radii in [1e-4, 80], off
    the gauge axis."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-4), np.log(80.0), n))
    th = rng.uniform(0.3, np.pi - 0.3, n)
    ph = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph),
                     r * np.cos(th)], axis=1)


@pytest.mark.parametrize("variant", list(Variant))
def test_frame_transform_matches_five_operand_einsum(monkeypatch, variant):
    """The pairwise contraction against the single five-operand einsum it
    replaced, on the frames and lowered tensors curvature_batch builds."""
    seen = []
    pairwise = geometry._frame_transform

    def spy(frame, lowered):
        out = pairwise(frame, lowered)
        seen.append((frame, lowered, out))
        return out

    monkeypatch.setattr(geometry, "_frame_transform", spy)
    spec = MetricSpec(variant=variant, t=0.4,
                      blend=BlendProfile(kind="septic"))
    curvature_batch(spec, _log_radius_batch(7))
    [(frame, lowered, out)] = seen
    ref = np.einsum("nwa,nxb,nyc,nzd,nwxyz->nabcd",
                    frame, frame, frame, frame, lowered)
    scale = np.abs(ref).max(axis=(1, 2, 3, 4))
    assert np.all(scale > 0)
    rel = np.abs(out - ref).max(axis=(1, 2, 3, 4)) / scale
    assert rel.max() < 1e-12


def test_curvature_batch_independent_of_batch():
    """Each point's curvature has the same bits whether it is evaluated
    with the whole batch or with half of it."""
    spec = MetricSpec(variant=Variant.HOMOTOPY, t=0.4)
    xyz = _log_radius_batch(11)
    whole = curvature_batch(spec, xyz)
    halves = [curvature_batch(spec, part) for part in (xyz[:32], xyz[32:])]
    for k, out in enumerate(whole):
        assert np.array_equal(
            out, np.concatenate([half[k] for half in halves]))


def _expand(val, grad, hess, idx):
    """A jet table of geometry._metric_jet_arrays as point-last arrays g
    (4,4,n), dg (3,4,4,n) with dg[e, a, b] = d_e g_ab, and d2g (3,3,4,4,n)."""
    n = val.shape[-1]
    return (val[idx], grad[:-1].reshape(-1, 3, n)[idx].transpose(2, 0, 1, 3),
            hess[:-1].reshape(-1, 3, 3, n)[idx].transpose(2, 3, 0, 1, 4))


_SPATIAL = [k for k, (_, d) in enumerate(PAIRS) if d < 3]
_DM_E = [c for c, _ in PAIRS] + [PAIRS[k][1] for k in _SPATIAL]
_DM_C = [d for _, d in PAIRS] + [PAIRS[k][0] for k in _SPATIAL]


def _commutator_forms(g, dg, d2g):
    """Reference kernel: the mixed curvature 2-forms on PAIRS as
    R_cd = d_c M_d - d_d M_c + [M_c, M_d] with the Christoffel matrices
    (M_c)^a_b = Gamma^a_cb and d_e M_c = g^-1 (d_e Gamma_c - d_e g M_c)."""
    n = g.shape[-1]
    ginv = np.ascontiguousarray(
        np.linalg.inv(np.moveaxis(g, -1, 0)).transpose(1, 2, 0))
    low = np.zeros((4, 4, 4, n))
    low[:, :3] += dg.transpose(1, 0, 2, 3)
    low[:, :, :3] += dg.transpose(1, 2, 0, 3)
    low[:3] -= dg
    low *= 0.5
    dlow = np.zeros((3, 4, 4, 4, n))
    dlow[:, :, :3] += d2g.transpose(0, 2, 1, 3, 4)
    dlow[:, :, :, :3] += d2g.transpose(0, 2, 3, 1, 4)
    dlow[:, :3] -= d2g
    dlow *= 0.5
    mat = np.einsum("adn,dcbn->cabn", ginv, low)
    dmat = np.einsum("adn,pdbn->pabn", ginv, dlow[_DM_E, :, _DM_C]
                     - np.einsum("pdfn,pfbn->pdbn", dg[_DM_E], mat[_DM_C]))
    first, second = mat[_DM_E[:6]], mat[_DM_C[:6]]
    forms = (np.einsum("pabn,pbkn->pakn", first, second)
             - np.einsum("pabn,pbkn->pakn", second, first))
    forms += dmat[:6]
    forms[_SPATIAL] -= dmat[6:]
    return forms


def _commutator_lowered(*table):
    """_commutator_forms lowered by g onto PAIRS x PAIRS, in the interface
    of geometry._lowered_riemann."""
    g, dg, d2g = _expand(*table)
    low = np.einsum("aen,qebn->abqn", g, _commutator_forms(g, dg, d2g))
    return low[tuple(zip(*PAIRS))], None


_KERNEL_CASES = [(variant, kind, l, gauge) for variant in Variant
                 for kind in ("quintic", "septic") for l in (0.2, 1.0, 6.0)
                 for gauge in Gauge]


def _kernel_spec(variant, kind, l):
    return MetricSpec(variant=variant, t=0.4, blend=BlendProfile(kind=kind),
                      l=l)


@pytest.mark.parametrize("variant, kind, l, gauge", _KERNEL_CASES)
def test_lowered_riemann_matches_commutator_oracle(variant, kind, l, gauge):
    """The kernel built from the lowered tensor and the commutator formula
    agree per point to 1e-8 of the point's largest 2-form entry; the gap
    is cancellation in Cartesian coordinates near the nut, widest at
    r = 1e-4 (about 3e-9)."""
    arrays = geometry._metric_jet_arrays(_kernel_spec(variant, kind, l),
                                         _log_radius_batch(3), gauge)
    got = geometry._riemann_from_arrays(*arrays)
    ref = _commutator_forms(*_expand(*arrays))
    rel = np.abs(got - ref).max(axis=(0, 1, 2)) \
        / np.abs(ref).max(axis=(0, 1, 2))
    assert rel.max() <= 1e-8


@pytest.mark.parametrize("variant, kind, l, gauge", _KERNEL_CASES)
def test_closed_form_metric_inverse_matches_lapack(variant, kind, l, gauge):
    """g^-1 read off the ansatz A dx^2 + C (dtau + omega)^2 matches LAPACK's
    inverse to 1e-13 of each point's largest entry (measured: at most
    3.1e-15 on these points, NORTH gauge, TN l = 0.2); the commutator
    oracle keeps LAPACK, so it stays independent."""
    val, _, _, idx = geometry._metric_jet_arrays(
        _kernel_spec(variant, kind, l), _log_radius_batch(3), gauge)
    ref = np.linalg.inv(np.moveaxis(val[idx], -1, 0)).transpose(1, 2, 0)
    gap = np.abs(geometry._metric_inverse(val, idx) - ref).max(axis=(0, 1))
    assert (gap / np.abs(ref).max(axis=(0, 1))).max() <= 1e-13


@pytest.mark.parametrize("variant, kind, l, gauge", _KERNEL_CASES)
def test_lowered_riemann_has_pair_symmetry_and_first_bianchi(
        monkeypatch, variant, kind, l, gauge):
    """R_ab,cd = R_cd,ab and R_a[bcd] = 0 hold for the lowered tensor to
    1e-15 of the point's largest second derivative of g, the size of the
    terms it sums (measured: at most 3.9e-16)."""
    seen = []
    expand = geometry.two_form_matrix

    def spy(pairs, *out):
        seen.append(pairs)
        return expand(pairs, *out)

    monkeypatch.setattr(geometry, "two_form_matrix", spy)
    arrays = geometry._metric_jet_arrays(_kernel_spec(variant, kind, l),
                                         _log_radius_batch(3), gauge)
    geometry._riemann_from_arrays(*arrays)
    [low] = seen
    scale = np.abs(_expand(*arrays)[2]).max(axis=(0, 1, 2, 3))
    pair = np.abs(low - low.transpose(1, 0, 2)).max(axis=(0, 1))
    # (c, d, a, b) from both pair axes, then R_abcd
    full = expand(np.moveaxis(expand(low), 2, 0)).transpose(2, 3, 0, 1, 4)
    cyclic = (full + full.transpose(0, 2, 3, 1, 4)
              + full.transpose(0, 3, 1, 2, 4))
    assert (pair / scale).max() <= 1e-15
    assert (np.abs(cyclic).max(axis=(0, 1, 2, 3)) / scale).max() <= 1e-15


@pytest.mark.parametrize("l", [0.2, 1.0, 6.0])
def test_tn_ricci_residual_no_worse_than_commutator_kernel(monkeypatch, l):
    """Frame Ricci of Taub-NUT relative to its frame Riemann tensor, median
    over 64 angles at each radius from the nut to r = 10: across the six
    radii the lowered kernel's residuals are no worse than the commutator
    kernel's, in geometric mean.  Radius by radius the two medians differ
    by roundoff noise of up to about 20 % either way."""
    spec = MetricSpec(variant=Variant.TN, l=l)
    rng = np.random.default_rng(5)

    def residual(xyz):
        riem, ricci, _, _ = curvature_batch(spec, xyz)
        return np.median(np.abs(ricci).max(axis=(1, 2))
                         / np.abs(riem).max(axis=(1, 2, 3, 4)))

    log_ratio = 0.0
    for r in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
        xyz = np.stack([Point.from_polar(r, th, ph).xyz() for th, ph in zip(
            rng.uniform(0.3, np.pi - 0.3, 64),
            rng.uniform(0.0, 2.0 * np.pi, 64))])
        got = residual(xyz)
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_lowered_riemann", _commutator_lowered)
            ref = residual(xyz)
        log_ratio += np.log(got / ref)
    assert log_ratio <= 0.0


def frozen_metric_jet_arrays(spec, xyz, gauge, radial=None):
    """geometry._metric_jet_arrays as it was written before the jet table:
    g (4,4,n), dg (3,4,4,n) and d2g (3,3,4,4,n), one copy per entry."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if radial is None:
        radial = geometry._radial_jets(spec, xyz)
    cols = list(enumerate(xyz.T))
    entries = geometry._metric_entries(
        spec, *(Jet.variable(x, i) for i, x in cols), gauge, radial,
        [Jet.variable_square(x, i) for i, x in cols])
    n = xyz.shape[0]
    g, dg, d2g = (np.empty((4, 4, n)), np.empty((3, 4, 4, n)),
                  np.empty((3, 3, 4, 4, n)))
    for a in range(4):
        for b in range(4):
            e = entries[a][b]
            g[a, b], dg[:, a, b], d2g[:, :, a, b] = e.val, e.grad, e.hess
    return g, dg, d2g


def frozen_lowered_riemann(g, dg, d2g):
    """geometry._lowered_riemann as it was written before the gathers: a
    zero-filled Christoffel array and d2g zero-padded on tau."""
    n = g.shape[-1]
    a_inv, c_coeff = 1.0 / g[2, 2], g[3, 3]
    omega = g[:3, 3] / c_coeff
    ginv = np.zeros_like(g)
    ginv[[0, 1, 2], [0, 1, 2]] = a_inv
    ginv[:3, 3] = ginv[3, :3] = -omega * a_inv
    ginv[3, 3] = 1.0 / c_coeff + (omega[0] * omega[0] + omega[1] * omega[1]
                                  + omega[2] * omega[2]) * a_inv
    low = np.zeros((4, 4, 4, n))
    low[:, :3] += dg.transpose(1, 0, 2, 3)
    low[:, :, :3] += dg.transpose(1, 2, 0, 3)
    low[:3] -= dg
    low *= 0.5
    up = np.einsum("fen,ebcn->fbcn", ginv, low)
    hess = np.zeros((4, 4, 4, 4, n))
    hess[:3, :3] = d2g
    a, b, c, d = geometry._A, geometry._B, geometry._C, geometry._D
    lowered = 0.5 * (hess[b, c, a, d] + hess[a, d, b, c]
                     - hess[b, d, a, c] - hess[a, c, b, d])
    for lo, hi in zip(low, up):
        lowered += lo[b, c] * hi[a, d] - lo[b, d] * hi[a, c]
    return lowered, ginv


def frozen_riemann_from_arrays(g, dg, d2g):
    """geometry._riemann_from_arrays on the frozen arrays and kernel."""
    lowered, ginv = frozen_lowered_riemann(g, dg, d2g)
    return np.einsum("aen,ebqn->qabn", ginv, two_form_matrix(lowered))


def frozen_frame_curvature(g, dg, d2g):
    """geometry._frame_curvature on the frozen arrays and kernel."""
    lowered, _ = frozen_lowered_riemann(g, dg, d2g)
    g = np.moveaxis(g, -1, 0)
    riem = np.ascontiguousarray(two_form_matrix(np.moveaxis(
        two_form_matrix(lowered), 2, 0)).transpose(4, 2, 3, 0, 1))
    frame = geometry._vierbein(g)
    riem = geometry._frame_transform(frame, riem)
    return riem, np.einsum("nabad->nbd", riem), g, frame


def _same_bits(got, ref):
    assert len(got) == len(ref)
    for mine, theirs in zip(got, ref):
        assert mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("variant, kind, l, gauge", _KERNEL_CASES)
def test_table_kernel_keeps_the_frozen_bits(variant, kind, l, gauge):
    """The jet table and its gathers give the mixed 2-forms and the frame
    curvature of the per-entry arrays and the padded kernel, bit for bit."""
    spec, xyz = _kernel_spec(variant, kind, l), _log_radius_batch(3, 67)
    arrays = frozen_metric_jet_arrays(spec, xyz, gauge)
    _same_bits([geometry._riemann_from_arrays(
        *geometry._metric_jet_arrays(spec, xyz, gauge))],
        [frozen_riemann_from_arrays(*arrays)])
    _same_bits(curvature_batch(spec, xyz, gauge),
               frozen_frame_curvature(*arrays))


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("gauge", list(Gauge))
def test_identity_table_keeps_the_frozen_bits(variant, gauge):
    """The finite-difference route goes through the same kernel on a table
    with one row per entry, with the bits of the padded kernel."""
    spec, xyz = _kernel_spec(variant, "septic", 1.0), _log_radius_batch(5, 9)
    table = geometry._fd_metric_arrays(spec, xyz, gauge, 1e-5)
    assert np.array_equal(table[3], np.arange(16).reshape(4, 4))
    arrays = _expand(*table)
    _same_bits([geometry._riemann_from_arrays(*table)],
               [frozen_riemann_from_arrays(*arrays)])
    sample = curvature_at(spec, Point(*xyz[0]), h=1e-5, gauge=gauge,
                          method="fd")
    riem, ricci, g, frame = frozen_frame_curvature(*(
        x[..., :1] for x in arrays))
    _same_bits([sample.riemann, sample.ricci, sample.metric.g,
                sample.metric.frame], [riem[0], ricci[0], g[0], frame[0]])


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["quintic", "septic"])
@pytest.mark.parametrize("l", [0.2, 1.0, 6.0])
def test_density_keeps_the_frozen_bits(monkeypatch, variant, kind, l):
    """_density_samples over several chunks, the last one short, has the
    bits of the per-entry arrays and the padded kernel."""
    spec = _kernel_spec(variant, kind, l)
    rs = np.geomspace(1e-4, 80.0, charclasses._CHUNK // 4 + 3)
    assert (8 * rs.size) % charclasses._CHUNK
    grids = [(rs, None, 8)]
    got, _ = charclasses._density_samples(spec, grids, ())
    monkeypatch.setattr(geometry, "_metric_jet_arrays",
                        frozen_metric_jet_arrays)
    monkeypatch.setattr(geometry, "_riemann_from_arrays",
                        frozen_riemann_from_arrays)
    _same_bits(got, charclasses._density_samples(spec, grids, ())[0])


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["quintic", "septic"])
def test_radial_lift_matches_three_variable_jets(monkeypatch, variant, kind):
    """A and C are differentiated on a one-variable jet in r and lifted by
    the chain rule: g keeps its bits, and dg and d2g stay within 1e-15 of
    the batch's largest entry of the direct three-variable propagation."""
    spec = _kernel_spec(variant, kind, 1.0)
    xyz = _log_radius_batch(13)
    got = _expand(*geometry._metric_jet_arrays(spec, xyz, Gauge.DEFAULT))
    monkeypatch.setattr(geometry.jets, "lift",
                        lambda radial, r: geometry._radial_coeffs(spec, r))
    ref = _expand(*geometry._metric_jet_arrays(spec, xyz, Gauge.DEFAULT))
    assert np.array_equal(got[0], ref[0])
    for mine, theirs in zip(got[1:], ref[1:]):
        gap = np.abs(mine - theirs)
        assert gap.max() <= 1e-15 * np.abs(theirs).max()
        # per point the gap reaches 7.5e-15 of its largest entry (septic
        # d2g), where A and C sum terms larger than themselves
        axes = tuple(range(mine.ndim - 1))
        assert np.all(gap.max(axis=axes)
                      <= 1e-14 * np.abs(theirs).max(axis=axes))


@pytest.mark.parametrize("kind", ["quintic", "septic"])
def test_blend_on_a_radial_jet_matches_finite_differences(kind):
    """A one-variable jet in r gives one-variable derivative arrays, also
    on the clamped sides of the blend, that central differences confirm."""
    blend = BlendProfile(kind=kind)
    rs = np.linspace(1.05, 4.95, 40)  # off the knots r = 2, 4
    out = blend(Jet(rs, np.ones((1, rs.size)), np.zeros((1, 1, rs.size))))
    assert out.grad.shape == (1, rs.size)
    assert out.hess.shape == (1, 1, rs.size)
    h = 1e-4
    up, mid, down = blend(rs + h), blend(rs), blend(rs - h)
    assert np.allclose(out.grad[0], (up - down) / (2.0 * h), atol=1e-7)
    assert np.allclose(out.hess[0, 0], (up - 2.0 * mid + down) / h**2,
                       atol=1e-5)


def test_fd_stencil_domain_error():
    with pytest.raises(DomainError):
        curvature_at(MetricSpec(variant=Variant.TN),
                     Point.from_polar(1e-5, 1.0, 0.5), h=1e-4, method="fd")


# ---------------------------------------------------------------------------
# Hodge star


def _flat_sample():
    return MetricSample(g=np.eye(4), frame=np.eye(4),
                        point=Point(1.0, 1.0, 1.0))


def test_flat_hodge_pairs():
    f = np.zeros((4, 4))
    f[0, 1], f[1, 0] = 1.0, -1.0  # dx1 ^ dx2
    out = hodge_star(_flat_sample(), f)
    expected = np.zeros((4, 4))
    expected[2, 3], expected[3, 2] = 1.0, -1.0  # dx3 ^ dtau
    assert np.allclose(out, expected)


def test_hodge_involution_random():
    for _ in range(10):
        p = random_point()
        sample = metric_at(MetricSpec(variant=Variant.TN), p)
        f = np.triu(RNG.standard_normal((4, 4)), 1)
        f = f - f.T
        twice = hodge_star(sample, hodge_star(sample, f))
        assert np.abs(twice - f).max() < 1e-12


def test_model_channel_duality_at_unit_radius():
    ch = InstantonChannel(lam=0.3, mcharge=1.0)
    s = field_strength_at(ch, Point.from_polar(1.0, 1.2, 0.4))
    assert min(s.asd_defect, s.sd_defect) < 1e-6


# ---------------------------------------------------------------------------
# 2-forms on PAIRS


def test_wedge4_matches_levi_civita():
    """wedge4 is (1/4) eps^abcd alpha_ab beta_cd, with trailing batch and
    matrix axes carried along elementwise."""
    rng = np.random.default_rng(23)
    alpha, beta = rng.standard_normal((2, 6, 5, 4, 4))
    expected = 0.25 * np.einsum("abcd,ab...,cd...->...", geometry._EPS4,
                                two_form_matrix(alpha), two_form_matrix(beta))
    got = wedge4(alpha, beta)
    assert got.shape == (5, 4, 4)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_wedge4_orientation():
    """dx1^dx2 wedge dx3^dtau is the positive volume dx1^dx2^dx3^dtau."""
    e = np.eye(6)
    assert wedge4(e[0], e[5]) == 1.0
    assert wedge4(e[5], e[0]) == 1.0
    assert wedge4(e[1], e[4]) == -1.0


def test_two_form_matrix_round_trips_pairs():
    pairs = np.random.default_rng(29).standard_normal((6, 3, 2))
    mat = two_form_matrix(pairs)
    assert mat.shape == (4, 4, 3, 2)
    assert np.array_equal(mat, -mat.swapaxes(0, 1))
    assert np.array_equal(np.array([mat[i, j] for i, j in PAIRS]), pairs)


# ---------------------------------------------------------------------------
# Point bookkeeping


def test_point_wraps_tau():
    p = Point(1.0, 0.0, 0.0, 2.0 * np.pi + 0.25)
    assert p.tau == pytest.approx(0.25)


def test_from_polar_round_trip():
    p = Point.from_polar(2.0, 0.8, 1.9)
    assert p.r == pytest.approx(2.0)
    assert p.theta == pytest.approx(0.8)
    assert p.phi == pytest.approx(1.9)
