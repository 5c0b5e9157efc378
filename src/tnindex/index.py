"""Assembly of the L2-index from bulk, gravitational, and boundary
contributions, with integrality diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charclasses import pontryagin_integral
from .errors import ConsistencyError
from .eta import SeriesSpec, eta_integral
from .gauge import InstantonData, boundary_data, bulk_action
from .geometry import MetricSpec, Variant
from .quadrature import QuadratureSpec

GRAV_MODES = ("numeric", "lemma")
GRAV_LEMMA_CONSTANT = 1.0 / 12.0


@dataclass
class IndexReport:
    """Assembled index with per-term provenance.

    index_value = bulk + grav - eta_contribution, and the integrality
    defect is the distance to nearest_integer (ties to even).  errors holds
    each term's error (bulk, grav, eta) and the cancellation_residual."""

    bulk: float
    grav: float
    eta_contribution: float
    index_value: float
    nearest_integer: int
    integrality_defect: float
    route: str
    grav_mode: str
    errors: dict
    quadrature: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report's fields, shallow: the nested dicts are the report's
        own, not copies."""
        return {"schema": "index-report/1", **vars(self)}


def index_formula(data: InstantonData, bulk: float) -> float:
    """bulk + sum_j ({lam_j} - 1/2) c_j - (1/2) sum_j ({lam_j}^2 - {lam_j}),
    reading the boundary traces channel by channel."""
    lambdas, cherns, _ = boundary_data(data)
    total = bulk
    for lam, c in zip(lambdas, cherns):
        total += (lam - 0.5) * c - 0.5 * (lam * lam - lam)
    return total


def index_formula_full_flux(data: InstantonData, bulk: float) -> float:
    """Variant of index_formula whose flux term couples to the full boundary
    flux {lam_j} + c_j instead of the bundle degree c_j alone.

    For the exact (anti-)self-dual model with integer mcharge m_j and
    induced degree c_j = -m_j this evaluates to the integer
    -sum_j m_j (m_j - 1)/2 independently of the holonomy parameters."""
    lambdas, cherns, _ = boundary_data(data)
    total = bulk
    for lam, c in zip(lambdas, cherns):
        total += (lam - 0.5) * (lam + c) - 0.5 * (lam * lam - lam)
    return total


def integrality_check(value: float, tol: float):
    """(nearest integer, defect, pass); half-integer ties round to even."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    nearest = int(np.rint(value))  # rint rounds half to even
    defect = abs(value - nearest)
    return nearest, defect, defect <= tol


def _missed_terms(data: InstantonData, route: str, series: SeriesSpec,
                  grav, eta) -> str:
    """Names each (value, error) term of a failed cancellation check that
    misses its oracle by more than its error, or by NaN: grav against
    rank/12, and the route's eta against the Bernoulli eta of the same
    channels.  The residual is at most the sum of the two misses, so when
    neither term misses, the closed formula itself is at fault."""
    oracles = (("grav", "rank/12", data.rank * GRAV_LEMMA_CONSTANT),
               (f"the {route} eta", "the Bernoulli eta of the same channels",
                eta_integral(data, "bernoulli", series)[0]))
    misses = [f"{name} misses {oracle} by {abs(value - exact):.3e}, beyond "
              f"its error {error:.3e}"
              for (name, oracle, exact), (value, error)
              in zip(oracles, (grav, eta)) if not abs(value - exact) <= error]
    return "; ".join(misses) or ("grav and eta each meet their oracle, so "
                                 "the closed formula is mistranscribed")


def assemble(data: InstantonData, quad: QuadratureSpec,
             route: str = "bernoulli", grav_mode: str = "numeric",
             series: SeriesSpec | None = None,
             metric: MetricSpec | None = None) -> IndexReport:
    """Full pipeline: bulk action quadrature, gravitational term (numeric
    integration or the certified 1/12 constant), and the boundary term, with
    a hard consistency check that the assembled value reproduces
    index_formula up to 1e-9 plus the quadrature error budget (the rank/12
    gravitational constant against the rank/2 * 1/6 boundary constant); a
    NaN residual fails it.  The bulk (at metric.l) and numeric gravity use
    metric, default ExactD."""
    if grav_mode not in GRAV_MODES:
        raise ValueError(f"unknown grav mode {grav_mode!r}")
    series = series if series is not None else SeriesSpec()
    if metric is None:
        metric = MetricSpec(variant=Variant.EXACT_D)

    bulk, bulk_err = bulk_action(data, quad, metric.l)
    if grav_mode == "lemma":
        grav, grav_err = data.rank * GRAV_LEMMA_CONSTANT, 0.0
    else:
        value, error = pontryagin_integral(metric, quad)
        grav, grav_err = data.rank * value, data.rank * error
    eta, eta_err = eta_integral(data, route, series)

    index_value = bulk + grav - eta
    formula_value = index_formula(data, bulk)
    residual = abs(index_value - formula_value)
    budget = 1e-9 + grav_err + eta_err
    if not residual <= budget:
        raise ConsistencyError(
            f"assembled index differs from the closed formula by "
            f"{residual:.3e}, beyond the error budget {budget:.3e}; "
            + _missed_terms(data, route, series, (grav, grav_err),
                            (eta, eta_err)))

    nearest, defect, _ = integrality_check(index_value, quad.tol)
    return IndexReport(
        bulk=bulk, grav=grav, eta_contribution=eta,
        index_value=index_value, nearest_integer=nearest,
        integrality_defect=defect, route=route, grav_mode=grav_mode,
        errors={"bulk": bulk_err, "grav": grav_err, "eta": eta_err,
                "cancellation_residual": residual},
        quadrature=dict(vars(quad)), series=dict(vars(series)),
    )
