"""Numerical verification of an L2-index formula for Dirac operators
twisted by anti-self-dual abelian instantons on Taub-NUT space.

The package computes, at desk scale, every piece of the index formula:
the blended metric family and its curvature, the normalized tr(R ^ R)
integral (= 1/12), model instanton fields with exact duality diagnostics,
the boundary eta-form by three independent routes, and the assembled
index with integrality checks.
"""

from .charclasses import (convergence_table, pontryagin_integral,
                          pontryagin_scalar)
from .errors import (ChartError, ConsistencyError, ConvergenceError,
                     DomainError, GenericityError, IsotropyError,
                     TNIndexError)
from .eta import (ROUTES, FormScalar, SeriesSpec, eta_bernoulli, eta_form,
                  eta_integral, eta_mode_sum, eta_poisson, poisson_check,
                  route_table)
from .gauge import (InstantonChannel, InstantonData, boundary_data,
                    bulk_action, bulk_action_closed_form,
                    field_strength_at, field_strength_coeff,
                    model_connection_at)
from .geometry import (BlendProfile, CurvatureSample, Gauge, MetricSample,
                       MetricSpec, Point, Variant, curvature_at, hodge_star,
                       metric_at, potential_and_omega, star3, wedge4)
from .index import (IndexReport, assemble, index_formula,
                    index_formula_full_flux, integrality_check)
from .quadrature import QuadratureSpec, integrate_radial, sweep_grids

__version__ = "1.0.0"

__all__ = [
    "BlendProfile", "ChartError", "ConsistencyError", "ConvergenceError",
    "CurvatureSample", "DomainError", "FormScalar", "Gauge",
    "GenericityError", "IndexReport", "InstantonChannel", "InstantonData",
    "IsotropyError", "MetricSample", "MetricSpec", "Point", "QuadratureSpec",
    "ROUTES", "SeriesSpec", "TNIndexError", "Variant", "assemble",
    "boundary_data", "bulk_action", "bulk_action_closed_form",
    "convergence_table",
    "curvature_at", "eta_bernoulli", "eta_form", "eta_integral",
    "eta_mode_sum", "eta_poisson", "field_strength_at",
    "field_strength_coeff", "hodge_star", "index_formula",
    "index_formula_full_flux", "integrality_check", "integrate_radial",
    "metric_at", "model_connection_at", "poisson_check",
    "pontryagin_integral", "pontryagin_scalar",
    "potential_and_omega",
    "route_table", "star3", "sweep_grids", "wedge4",
]
