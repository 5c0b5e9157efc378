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
    """Batch of second-order Taylor jets in ``NVARS`` variables.

    val  : (...,)            values
    grad : (..., 3)          first derivatives
    hess : (..., 3, 3)       second derivatives (symmetric)
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def variable(cls, val, index):
        """Seed jet for coordinate ``index`` of a batch of points."""
        val = np.asarray(val, dtype=float)
        grad = np.zeros(val.shape + (NVARS,))
        grad[..., index] = 1.0
        hess = np.zeros(val.shape + (NVARS, NVARS))
        return cls(val, grad, hess)

    @classmethod
    def constant(cls, val, shape=None):
        val = np.asarray(val, dtype=float)
        if shape is not None:
            val = np.broadcast_to(val, shape).copy()
        return cls(
            val,
            np.zeros(val.shape + (NVARS,)),
            np.zeros(val.shape + (NVARS, NVARS)),
        )

    def _like(self, c):
        if isinstance(c, Jet):
            return c
        return Jet.constant(c, self.val.shape)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._like(other)
        return Jet(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return self._like(other) - self

    def __mul__(self, other):
        o = self._like(other)
        val = self.val * o.val
        grad = self.grad * o.val[..., None] + o.grad * self.val[..., None]
        # the symmetrised outer product of the gradients: (b a^T)^T = a b^T
        outer = self.grad[..., :, None] * o.grad[..., None, :]
        hess = (
            self.hess * o.val[..., None, None]
            + o.hess * self.val[..., None, None]
            + (outer + np.swapaxes(outer, -1, -2))
        )
        return Jet(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._like(other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self._like(other) * self.reciprocal()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Jet.__pow__ only supports non-negative ints")
        out = Jet.constant(1.0, self.val.shape)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- univariate compositions -------------------------------------------

    def _compose(self, f, fp, fpp):
        """Chain rule for a scalar function applied entrywise."""
        grad = fp[..., None] * self.grad
        hess = (
            fp[..., None, None] * self.hess
            + fpp[..., None, None]
            * self.grad[..., :, None]
            * self.grad[..., None, :]
        )
        return Jet(f, grad, hess)

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
    """Elementwise select between two jets with matching batch shape."""
    mask = np.asarray(mask, dtype=bool)
    return Jet(
        np.where(mask, a.val, b.val),
        np.where(mask[..., None], a.grad, b.grad),
        np.where(mask[..., None, None], a.hess, b.hess),
    )
