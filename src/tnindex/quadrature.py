"""Deterministic radial quadrature: one composite Gauss-Legendre rule on a
logarithmic radial grid, cut at the density's knots, and integrate_radial,
the one driver of both radial terms, with refinement error estimates."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

import numpy as np

from .errors import ConvergenceError, IsotropyError

# relative roundoff allowed for a sum of a few hundred terms and its ends
ROUNDOFF = 16.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class QuadratureSpec:
    r_min: float = 1e-4
    r_max: float = 80.0
    n_r: int = 256
    n_ang: int = 8
    tol: float = 1e-3

    def __post_init__(self):
        if self.n_r < 16:
            raise ValueError("n_r must be at least 16")
        if not 0 < self.r_max < np.inf:
            raise ValueError("r_max must be finite and positive")
        if not 0 < self.r_min < self.r_max:
            raise ValueError("r_min must be positive and below r_max")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        if self.n_ang < 2:
            raise ValueError("n_ang must be at least 2")


@lru_cache(maxsize=32)
def _legendre_rule(m: int):
    """leggauss(m), computed once per m and shared, so read-only; the
    panels of a grid of at least 8 nodes hold 2 to 31 nodes."""
    xs, ws = np.polynomial.legendre.leggauss(m)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def _inside(quad: QuadratureSpec, knots) -> tuple:
    """The distinct knots strictly inside (r_min, r_max), increasing."""
    return tuple(sorted({float(k) for k in knots
                         if quad.r_min < k < quad.r_max}))


def radial_nodes(quad: QuadratureSpec, n_r: int, knots=()):
    """Radial nodes and weights for integrals of a per-unit-r density.

    Composite Gauss-Legendre in y = log(r).  The knots inside (r_min,
    r_max) cut it into pieces whose ends are panel edges, so that a
    density smooth on each piece but not across a knot converges at the
    rate of its pieces (Davis & Rabinowitz, 1984).  With k knots inside,
    each piece after the first gets n_r // (2k) nodes and the first the
    rest: 1/2, 1/4 and 1/4 for two knots.  So every piece holds about half
    its nodes on the half-size grid, down to the smallest, 8 nodes (4, 2
    and 2), and the fine-coarse difference sees each.  A piece of m nodes
    has max(1, m // 16) equal panels, the first m % panels of them holding
    one node more than the rest; with no knot inside, that is the whole
    rule.  The returned weights already include the dr = r dy Jacobian, so
    sum(w * rho(r)) approximates the r-integral.  A GridSet shares them,
    so both arrays are read-only.
    """
    inside = _inside(quad, knots)
    share = n_r // (2 * len(inside)) if inside else 0
    counts = [n_r - share * len(inside)] + [share] * len(inside)
    ends = [np.log(r) for r in (quad.r_min, *inside, quad.r_max)]
    y, wy = [], []
    for count, start, stop in zip(counts, ends[:-1], ends[1:]):
        n_panels = max(1, count // 16)
        per, extra = divmod(count, n_panels)
        sizes = [per + 1] * extra + [per] * (n_panels - extra)
        edges = np.linspace(start, stop, n_panels + 1)
        for m, lo, hi in zip(sizes, edges[:-1], edges[1:]):
            xs, ws = _legendre_rule(m)
            y.append(0.5 * (hi - lo) * xs + 0.5 * (hi + lo))
            wy.append(0.5 * (hi - lo) * ws)
    r = np.exp(np.concatenate(y))
    w = np.concatenate(wy) * r
    r.flags.writeable = w.flags.writeable = False
    return r, w


def angular_samples(n_ang: int):
    """Deterministic (theta, phi) check samples away from the gauge axis."""
    thetas = np.linspace(0.35, np.pi - 0.35, n_ang)
    phis = (0.4 + 2.39996 * np.arange(n_ang)) % (2.0 * np.pi)
    return thetas, phis


def angular_points(rs, n_ang: int) -> np.ndarray:
    """Cartesian check points (len(rs), n_ang, 3) at each radius and each
    `angular_samples` direction, in Point.from_polar's order of operations,
    so they equal its points bit for bit."""
    thetas, phis = angular_samples(n_ang)
    r, st = np.asarray(rs, dtype=float)[:, None], np.sin(thetas)
    return np.stack([r * st * np.cos(phis), r * st * np.sin(phis),
                     r * np.cos(thetas)], axis=-1)


def angular_spread(samples: np.ndarray):
    """(mean, spread) of angular check samples of shape (n, n_ang): the
    mean over the directions at each radius and the largest distance of a
    direction from it."""
    # the bits of samples.mean(axis=1), without its Python-level wrapper
    mean = samples.sum(axis=1) / samples.shape[1]
    return mean, np.abs(samples - mean[:, None]).max(axis=1)


def require_isotropy(samples: np.ndarray, spread: np.ndarray, tol: float):
    """Raise IsotropyError when the largest relative spread of the samples
    exceeds tol or is NaN, since a cohomogeneity-one density must not
    depend on the angle."""
    scale = np.abs(samples).max(axis=1) + 1e-12
    resid = float((spread / scale).max())
    if not resid <= tol:
        raise IsotropyError(
            f"angular spread {resid:.3e} exceeds {tol:.3e}; "
            "the cohomogeneity-one reduction is invalid")


_DOT_CHUNK = 8192  # OpenBLAS splits a dot of over 10,000 terms across threads


def ordered_dot(a, b):
    """sum(a * b) as np.dot over consecutive chunks of at most _DOT_CHUNK
    terms, added in order, so the bits do not follow OPENBLAS_NUM_THREADS;
    up to _DOT_CHUNK terms it is the single np.dot."""
    total = np.dot(a[:_DOT_CHUNK], b[:_DOT_CHUNK])
    for i in range(_DOT_CHUNK, len(a), _DOT_CHUNK):
        total = total + np.dot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK])
    return total


@dataclass(frozen=True, eq=False)
class GridSet:
    """The grids of a sweep as one read-only value: `grids`, each (r, w,
    directions), the checked grid first; the sweep's `n_r_values`; the end
    radii `ends`, (r_min, r_max), which hold no point; and `points`, the
    read-only (N, 3) points of the grids, grid after grid, each
    radius-major at its `angular_points` directions.  It hashes and
    compares by identity."""

    grids: tuple
    n_r_values: tuple
    ends: tuple
    points: np.ndarray = field(init=False, repr=False)
    _derived: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        points = np.concatenate([angular_points(r, k).reshape(-1, 3)
                                 for r, _, k in self.grids])
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def split(self, values):
        """values at the points split back into one (len(r), directions)
        view per grid, in grid order."""
        out, start = [], 0
        for r, _, k in self.grids:
            out.append(values[start:start + len(r) * k].reshape(len(r), k))
            start += len(r) * k
        return out

    def derived(self, build):
        """build(self), run on the first call and kept on the set, so what
        depends on its points alone is evicted with it: sweep_grids' bound
        is the one bound on both."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]


def sweep_grids(quad: QuadratureSpec, n_r_values, knots=()) -> GridSet:
    """The GridSet of a sweep over n_r_values, each row needing its grid of
    n_r nodes and the half-size grid, with the ends quad.r_min and
    quad.r_max, every grid cut at the knots (`radial_nodes`).  Each
    distinct grid appears once, since a fine grid of one row is often the
    coarse grid of the next.  The checked grid comes first, at quad.n_ang
    directions: the half-size grid of the smallest n_r.  Every other grid
    follows at one direction, the first of `angular_samples`.  Built once
    per layout (r_min, r_max, n_ang, the knots inside, n_r_values as Python
    ints, so a float is refused), which quad.n_r and quad.tol do not
    change, and shared."""
    return _layout(quad.r_min, quad.r_max, quad.n_ang, _inside(quad, knots),
                   *map(index, n_r_values))


@lru_cache(maxsize=8)
def _layout(r_min: float, r_max: float, n_ang: int, knots: tuple,
            *n_r_values: int):
    quad = QuadratureSpec(r_min, r_max)
    sizes = dict.fromkeys([min(n_r_values) // 2]
                          + [m for n in n_r_values for m in (n, n // 2)])
    return GridSet(tuple((*radial_nodes(quad, m, knots),
                          n_ang if k == 0 else 1)
                         for k, m in enumerate(sizes)),
                   n_r_values, (r_min, r_max))


def _not_finite(grid_set, densities, sums) -> str:
    """integrate_radial's message for a row that is not finite: the grid
    and the radius of the first non-finite sample of the densities, in
    grid order; else whether the sums or only their tail bound are not."""
    for (r, _, _), d in zip(grid_set.grids, densities):
        bad = ~np.isfinite(d).all(axis=1)
        if bad.any():
            return (f"radial integral is not finite: the {len(r)}-node grid "
                    f"is not finite at r = {float(r[bad.argmax()])!r}")
    if all(map(math.isfinite, sums)):
        return "tail bound of a finite radial integral is not finite"
    return "radial integral is not finite"


def integrate_radial(quad: QuadratureSpec, n_r_values, knots, sample,
                     limits, scale: float):
    """Rows (n_r, value, error, tail_bound), one per n_r of n_r_values, of
    the integral over r > 0 of a density dF/dr, F = sum_j F_j: the one
    path of both radial terms.  sample(grid_set), called once on
    sweep_grids(quad, n_r_values, knots), returns the density on each
    grid, shape (len(r), directions), and the ends (F_j(r_min)),
    (F_j(r_max)), lists of floats; limits are (F_j(0+)), (F_j(infinity)),
    and scale is a magnitude the term sums besides them, 0.0 for none.
    The one isotropy check runs on the checked grid against quad.tol.  Its
    first direction is its value; its sum |w spread| (`angular_spread`) is
    the direction term, the cost of one direction.  A row's value is its
    fine sum over [r_min, r_max] on its grid of n_r nodes (`ordered_dot`,
    so bit-stable), plus the head sum_j [F_j(r_min) - F_j(0+)] and the
    tail sum_j [F_j(infinity) - F_j(r_max)], each summed from 0.0 in
    component order; its error is the fine sum's difference from the
    half-size grid's; its tail bound, evaluated left to right, is the
    direction term + ROUNDOFF * (mass + sum_j |F_j(r_min)| + sum_j
    |F_j(r_max)| + scale) + the smallest normal double, with mass = sum
    |w rho| on its grid.  A value, coarse sum or tail bound that is not
    finite raises ConvergenceError with both sums as its history
    (`_not_finite`); a non-finite sample on the checked grid skips the
    isotropy check."""
    grid_set = sweep_grids(quad, n_r_values, knots)
    densities, ends = sample(grid_set)
    (_, w_check, _), checked = grid_set.grids[0], densities[0]
    _, spread = angular_spread(checked)
    direction = float(spread @ w_check)
    if math.isfinite(direction):
        require_isotropy(checked, spread, quad.tol)
    head = tail = 0.0
    for at_min, at_max, at_zero, at_inf in zip(*ends, *limits):
        head, tail = head + (at_min - at_zero), tail + (at_inf - at_max)
    low, high = (sum(map(abs, end)) for end in ends)
    # contiguous: np.dot sums a strided column in another order
    sampled = {len(r): (w, np.ascontiguousarray(d[:, 0]))
               for (r, w, _), d in zip(grid_set.grids, densities)}
    rows = []
    for n in grid_set.n_r_values:
        (w_f, fine), (w_c, coarse) = sampled[n], sampled[n // 2]
        value = float(ordered_dot(fine, w_f))
        coarse_value = float(ordered_dot(coarse, w_c))
        mass, total = float(np.abs(fine) @ w_f), value + head + tail
        bound = direction + ROUNDOFF * (mass + low + high + scale) \
            + sys.float_info.min
        if not all(map(math.isfinite, (total, coarse_value, bound))):
            raise ConvergenceError(
                _not_finite(grid_set, densities, (total, coarse_value)),
                [(n // 2, coarse_value), (n, value)])
        rows.append((n, total, abs(value - coarse_value), bound))
    return rows
