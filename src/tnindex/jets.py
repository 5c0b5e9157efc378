"""Vectorized second-order jets (truncated Taylor series) in three variables.

A ``Jet`` carries a batch of values together with their gradients and Hessians
with respect to the three Cartesian coordinates.  Propagating jets through the
closed-form metric components yields exact first and second derivatives, which
is what the Christoffel and Riemann computations need.
"""

from __future__ import annotations

import numpy as np

NVARS = 3


class Jet:
    """Batch of second-order Taylor jets in k variables, derivative axes
    first so that the batch index is last: k = ``NVARS`` for coordinate
    jets, 1 for the radial jets of `seed`.

    val  : (...,)            values
    grad : (k, ...)          first derivatives
    hess : (k, k, ...)       second derivatives (symmetric)

    A plain number or array operand acts as a constant jet.  Jets are never
    written to, so a result may share its operand's derivative arrays.
    """

    __slots__ = ("val", "grad", "hess")
    # numpy defers to the reflected Jet operator, so `array + jet` is a jet
    __array_ufunc__ = None

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    def __getitem__(self, index):
        """The jets of the entries that ``index`` picks on the batch axis,
        the last one."""
        return Jet(self.val[index], self.grad[..., index],
                   self.hess[..., index])

    @classmethod
    def variable(cls, val, index):
        """Seed jet for coordinate ``index`` of a batch of points."""
        val = np.asarray(val, dtype=float)
        grad = np.zeros((NVARS,) + val.shape)
        grad[index] = 1.0
        return cls(val, grad, np.zeros((NVARS, NVARS) + val.shape))

    @classmethod
    def variable_square(cls, val, index):
        """The square of ``variable(val, index)``, built directly: the
        values of ``x * x``, up to the sign of zeros, at a third of its
        cost."""
        val = np.asarray(val, dtype=float)
        grad = np.zeros((NVARS,) + val.shape)
        grad[index] = 2.0 * val
        hess = np.zeros((NVARS, NVARS) + val.shape)
        hess[index, index] = 2.0
        return cls(val * val, grad, hess)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val + other, self.grad, self.hess)
        return Jet(self.val + other.val, self.grad + other.grad,
                   self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val * other, self.grad * other,
                       self.hess * other)
        val = self.val * other.val
        grad = self.grad * other.val + other.grad * self.val
        # the symmetrised outer product of the gradients: (b a^T)^T = a b^T
        outer = self.grad[:, None] * other.grad[None, :]
        hess = (
            self.hess * other.val
            + other.hess * self.val
            + (outer + np.swapaxes(outer, 0, 1))
        )
        return Jet(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- univariate compositions -------------------------------------------

    def _compose(self, f, fp, fpp):
        """Chain rule for a scalar function applied entrywise."""
        return Jet(f, fp * self.grad,
                   fp * self.hess
                   + fpp * self.grad[:, None] * self.grad[None, :])

    def reciprocal(self):
        inv = 1.0 / self.val
        return self._compose(inv, -inv * inv, 2.0 * inv * inv * inv)

    def sqrt(self):
        s = np.sqrt(self.val)
        return self._compose(s, 0.5 / s, -0.25 / (s * self.val))

    def exp(self):
        e = np.exp(self.val)
        return self._compose(e, e, e)

    def log(self):
        return self._compose(
            np.log(self.val), 1.0 / self.val, -1.0 / (self.val * self.val)
        )


def log(x):
    """Entrywise log of a jet or an array."""
    return x.log() if isinstance(x, Jet) else np.log(x)


def exp(x):
    """Entrywise exp of a jet or an array."""
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def sqrt(x):
    """Entrywise square root of a jet or an array."""
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(x)


def where(mask, a, b):
    """Elementwise select between two jets with matching batch shape; a
    plain number or array acts as a constant jet."""
    mask = np.asarray(mask, dtype=bool)
    parts = [(x.val, x.grad, x.hess) if isinstance(x, Jet) else (x, 0.0, 0.0)
             for x in (a, b)]
    return Jet(*(np.where(mask, u, v) for u, v in zip(*parts)))


def seed(val):
    """The one-variable jet of the identity at the values val."""
    val = np.asarray(val, dtype=float)
    return Jet(val, np.ones((1,) + val.shape), np.zeros((1, 1) + val.shape))


def read_only(*ys):
    """Mark the arrays of the jets ys read-only, for jets that a cache
    shares; returns ys."""
    for y in ys:
        for a in (y.val, y.grad, y.hess):
            a.flags.writeable = False
    return ys


class SharedSeed(Jet):
    """`seed(val)` for values that many calls share, read-only.  It forms
    its reciprocal and log once, and `shared` keeps what the last
    MAX_SHARED functions give on it, so a call that starts from it repeats
    none of this work and gets the same bits."""

    __slots__ = ("_reciprocal", "_log", "_shared")
    MAX_SHARED = 4

    def __init__(self, val):
        plain = seed(val)
        super().__init__(plain.val, plain.grad, plain.hess)
        self._reciprocal, self._log = read_only(plain.reciprocal(),
                                                plain.log())
        read_only(self)
        self._shared = {}

    def reciprocal(self):
        return self._reciprocal

    def log(self):
        return self._log


def shared(f, x):
    """f(x) for a hashable function f; when x is a SharedSeed the result is
    formed once and kept, read-only, for its last MAX_SHARED functions."""
    if not isinstance(x, SharedSeed):
        return f(x)
    kept = x._shared
    if f not in kept:
        if len(kept) == x.MAX_SHARED:
            del kept[next(iter(kept))]
        kept[f] = read_only(f(x))[0]
    return kept[f]


def lift(ys, x):
    """One-variable jets ys, taken at the values of the jet x, composed with
    x by the chain rule: one jet in x's variables each."""
    return tuple(x._compose(y.val, y.grad[0], y.hess[0, 0]) for y in ys)
