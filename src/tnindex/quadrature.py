"""Deterministic radial quadrature: one composite Gauss-Legendre rule on a
logarithmic radial grid, with refinement-based error estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, IsotropyError

# relative roundoff allowed for a sum of a few hundred terms and for the
# closed-form ends that the radial integrals add to their quadrature
ROUNDOFF = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    r_min: float = 1e-4
    r_max: float = 80.0
    n_r: int = 256
    n_ang: int = 8
    tol: float = 1e-3

    def __post_init__(self):
        if self.n_r < 16:
            raise ValueError("need at least 16 radial nodes")
        if not (0 < self.r_min < self.r_max < np.inf):
            raise ValueError("require 0 < r_min < r_max, both finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.n_ang < 2:
            raise ValueError("need at least 2 angular check samples")


@lru_cache(maxsize=32)
def _legendre_rule(m: int):
    """leggauss(m), computed once per m and shared, so read-only; the
    panels of a grid of at least 8 nodes hold 8 to 31 nodes."""
    xs, ws = np.polynomial.legendre.leggauss(m)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def radial_nodes(quad: QuadratureSpec, n_r: int):
    """Radial nodes and weights for integrals of a per-unit-r density.

    Composite Gauss-Legendre in y = log(r): n_r nodes on max(1, n_r // 16)
    equal panels, the first n_r % panels of them holding one node more
    than the rest.  The returned weights already include the
    dr = r dy Jacobian, so sum(w * rho(r)) approximates the r-integral.
    Each grid is built once per process and shared, so both arrays are
    read-only.
    """
    return _radial_grid(quad.r_min, quad.r_max, n_r)


@lru_cache(maxsize=16)
def _radial_grid(r_min: float, r_max: float, n: int):
    """radial_nodes on [r_min, r_max] with n nodes, read-only."""
    n_panels = max(1, n // 16)
    per, extra = divmod(n, n_panels)
    sizes = [per + 1] * extra + [per] * (n_panels - extra)
    edges = np.linspace(np.log(r_min), np.log(r_max), n_panels + 1)
    y, wy = [], []
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


def sweep_grids(quad: QuadratureSpec, n_r_values):
    """The distinct radial grids (r, w, directions) of a sweep over
    n_r_values, each row needing its grid of n_r nodes and the half-size
    grid.  The checked grid comes first, at quad.n_ang directions: the
    half-size grid of the smallest n_r.  Every other grid follows once, at
    one direction, the first of `angular_samples`, since a fine grid of
    one row is often the coarse grid of the next."""
    sizes = dict.fromkeys([min(n_r_values) // 2]
                          + [m for n in n_r_values for m in (n, n // 2)])
    return [(*radial_nodes(quad, m), quad.n_ang if k == 0 else 1)
            for k, m in enumerate(sizes)]


def grid_points(grids) -> np.ndarray:
    """The (N, 3) points of the grids (r, w, directions), grid after grid,
    each radius-major at its `angular_points` directions."""
    return np.concatenate([angular_points(r, k).reshape(-1, 3)
                           for r, _, k in grids])


def grid_set_key(grids) -> tuple:
    """The grids (r, w, directions) as a hashable key of their points, (r
    bytes, directions) per grid, for a cache of what depends on the points
    alone; `key_grids` reads it back."""
    return tuple((np.asarray(r, dtype=float).tobytes(), k)
                 for r, _, k in grids)


def key_grids(grid_set):
    """The grids (r, None, directions) of a `grid_set_key`, r read-only."""
    return [(np.frombuffer(r), None, k) for r, k in grid_set]


def per_grid(values, grids):
    """values at the points of `grid_points(grids)` split back into one
    (len(r), directions) view per grid, in grid order."""
    out, start = [], 0
    for r, _, k in grids:
        out.append(values[start:start + len(r) * k].reshape(len(r), k))
        start += len(r) * k
    return out


def integrate_radial(grids, densities, quad: QuadratureSpec, n_r_values):
    """Rows (n_r, value, error, direction, mass) of a radial sweep over
    [r_min, r_max] from the `sweep_grids` of n_r_values and the density on
    each, shape (len(r), directions).

    The one isotropy check runs on the checked grid against quad.tol.  Its
    first direction is its value; its sum |w spread| (`angular_spread`) is
    the direction term, the cost of one direction.  A row's value is the
    sum on its grid of n_r nodes in node order (`ordered_dot`, so
    bit-stable), its error the difference from the half-size grid and its
    mass sum |w rho|.  A non-finite sum, direction term or mass raises
    ConvergenceError, with both sums as its history.  So does a non-finite
    sample of the checked grid, which makes the direction term non-finite:
    it skips the isotropy check and fails at the first row."""
    (_, w_check, _), checked = grids[0], densities[0]
    _, spread = angular_spread(checked)
    direction = float(spread @ w_check)
    if math.isfinite(direction):
        require_isotropy(checked, spread, quad.tol)
    # contiguous: np.dot sums a strided column in another order
    sampled = {len(r): (w, np.ascontiguousarray(d[:, 0]))
               for (r, w, _), d in zip(grids, densities)}
    rows = []
    for n in n_r_values:
        (w_f, fine), (w_c, coarse) = sampled[n], sampled[n // 2]
        value = float(ordered_dot(fine, w_f))
        coarse_value = float(ordered_dot(coarse, w_c))
        mass = float(np.abs(fine) @ w_f)
        if not all(map(math.isfinite, (value, coarse_value, direction,
                                       mass))):
            raise ConvergenceError("radial integral is not finite",
                                   [(n // 2, coarse_value), (n, value)])
        rows.append((n, value, abs(value - coarse_value), direction, mass))
    return rows
