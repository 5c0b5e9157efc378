"""Second-order jet arithmetic against finite differences."""

import functools
import operator

import numpy as np
import pytest

from tnindex import jets
from tnindex.jets import Jet, exp, log, sqrt, where


def _fd_grad_hess(f, x, h=1e-4):
    n = len(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    for i in range(n):
        for j in range(n):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            hess[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h)
    return grad, hess


@pytest.mark.parametrize("expr", [
    lambda x, y, z: x * y + z,
    lambda x, y, z: sqrt(x * x + y * y + z * z),
    lambda x, y, z: exp(-x) * log(1.0 + y * y) + 1.0 / (1.0 + z * z),
    lambda x, y, z: (x + 2.0 * y) * (x + 2.0 * y) * (x + 2.0 * y)
    / (0.5 + z * z),
])
def test_jet_matches_finite_differences(expr):
    x0 = np.array([0.7, -0.4, 1.3])
    jx = [Jet.variable(np.array([x0[i]]), i) for i in range(3)]
    out = expr(jx[0], jx[1], jx[2])

    def f(x):
        return expr(x[0], x[1], x[2])

    grad, hess = _fd_grad_hess(f, x0)
    assert out.val[0] == pytest.approx(f(x0), rel=1e-12)
    assert np.allclose(out.grad[:, 0], grad, atol=1e-6)
    assert np.allclose(out.hess[:, :, 0], hess, atol=1e-4)


def test_jet_reciprocal_and_power():
    x = Jet.variable(np.array([2.0]), 0)
    y = (x * x * x).reciprocal()
    assert y.val[0] == pytest.approx(1 / 8)
    # d/dx x^-3 = -3 x^-4, d2/dx2 = 12 x^-5
    assert y.grad[0, 0] == pytest.approx(-3.0 / 16.0)
    assert y.hess[0, 0, 0] == pytest.approx(12.0 / 32.0)


def test_where_selects_branches():
    x = Jet.variable(np.array([-1.0, 2.0]), 0)
    sel = where(x.val > 0, x * x, x * (-1.0))
    assert np.allclose(sel.val, [1.0, 4.0])
    assert np.allclose(sel.grad[0], [-1.0, 4.0])


def test_where_takes_a_plain_number_as_a_constant_jet():
    """A plain branch selects its value with zero derivatives, on jets of
    any number of variables."""
    for k in (1, 3):
        x = Jet(np.array([-1.0, 2.0]), np.ones((k, 2)), np.ones((k, k, 2)))
        sel = where(x.val > 0, x, 0.5)
        assert np.array_equal(sel.val, [0.5, 2.0])
        assert np.array_equal(sel.grad, np.tile([0.0, 1.0], (k, 1)))
        assert np.array_equal(sel.hess, np.tile([0.0, 1.0], (k, k, 1)))


def test_where_selects_points_on_point_last_gradient():
    # three points, so a mask broadcast along the derivative axis of the
    # (3, n) gradient would also have the right shape
    xyz = np.array([[0.5, -1.0, 2.0], [1.5, 0.3, -0.7], [-0.2, 0.9, 1.1]])
    x, y, z = (Jet.variable(xyz[:, i], i) for i in range(3))
    a, b = x * y, y * z
    mask = np.array([True, False, True])
    sel = where(mask, a, b)
    for k in range(3):
        src = a if mask[k] else b
        assert sel.val[k] == src.val[k]
        assert np.array_equal(sel.grad[:, k], src.grad[:, k])
        assert np.array_equal(sel.hess[:, :, k], src.hess[:, :, k])


@pytest.mark.parametrize("kind", ["float", "array"])
def test_plain_operand_acts_as_constant_jet(kind):
    rng = np.random.default_rng(20181)
    n = 5
    xyz = rng.uniform(0.5, 2.0, size=(n, 3))
    x, y, z = (Jet.variable(xyz[:, i], i) for i in range(3))
    jet = sqrt(x * x + y * y) * z + exp(-y)
    c = float(rng.uniform(0.5, 3.0)) if kind == "float" \
        else rng.uniform(0.5, 3.0, size=n)
    const = Jet(np.broadcast_to(c, (n,)), np.zeros((3, n)),
                np.zeros((3, 3, n)))
    ops = [
        lambda a, b: a + b, lambda a, b: b + a,
        lambda a, b: a - b, lambda a, b: b - a,
        lambda a, b: a * b, lambda a, b: b * a,
        lambda a, b: a / b, lambda a, b: b / a,
    ]
    for op in ops:
        fast, ref = op(jet, c), op(jet, const)
        assert isinstance(fast, Jet)
        assert np.array_equal(fast.val, ref.val)
        assert np.array_equal(fast.grad, ref.grad)
        assert np.array_equal(fast.hess, ref.hess)


def test_shared_seed_keeps_the_bits_of_a_plain_seed():
    """A SharedSeed gives the reciprocal, log and function results of
    seed() on the same values, bit for bit, keeps them read-only, and keeps
    at most MAX_SHARED function results."""
    vals = np.geomspace(1e-4, 80.0, 37)
    kept, plain = jets.SharedSeed(vals), jets.seed(vals)
    pairs = [(kept, plain), (kept.reciprocal(), plain.reciprocal()),
             (kept.log(), plain.log()), (1.0 / kept, 1.0 / plain)]
    scalings = [functools.partial(operator.mul, 0.5 + k)
                for k in range(jets.SharedSeed.MAX_SHARED + 2)]
    for f in scalings:
        pairs.append((jets.shared(f, kept), f(plain)))
    for mine, theirs in pairs:
        for a, b in zip((mine.val, mine.grad, mine.hess),
                        (theirs.val, theirs.grad, theirs.hess)):
            assert a.tobytes() == b.tobytes()
    assert list(kept._shared) == scalings[2:]
    assert jets.shared(scalings[-1], kept) is kept._shared[scalings[-1]]
    for y in (kept, kept.reciprocal(), kept.log(), *kept._shared.values()):
        for a in (y.val, y.grad, y.hess):
            with pytest.raises(ValueError):
                a[0] = 0.0
