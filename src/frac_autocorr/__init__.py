"""Numerics and cross-checks for the multiplicative autocorrelation
A(lambda) = integral_0^inf {t}{lambda t} t^-2 dt of the fractional part,
with the Vasyunin-sum, Estermann-function and phi-series machinery that
feeds its closed forms and local expansions."""

from .autocorr import (
    LocalModel,
    QuadratureConfig,
    a_quadrature,
    a_rational,
    farey_scan,
    local_model,
)
from .errors import (
    DomainError,
    FracAutocorrError,
    NonCoprimeError,
    PoleError,
    ToleranceError,
)
from .phi import ExpansionCoefficients, PhiEvalConfig, delta, expansion_coeffs, phi1_rational, phi_n
from .rational_core import FareyScanRecord, farey_sequence, frac_rational
from .specfun import CertifiedReal, digamma, hurwitz_zeta, log_gamma, riemann_zeta
from .vasyunin import vasyunin_cot, vasyunin_noncoprime

__all__ = [
    "CertifiedReal",
    "DomainError",
    "ExpansionCoefficients",
    "FareyScanRecord",
    "FracAutocorrError",
    "LocalModel",
    "NonCoprimeError",
    "PhiEvalConfig",
    "PoleError",
    "QuadratureConfig",
    "ToleranceError",
    "a_quadrature",
    "a_rational",
    "delta",
    "digamma",
    "expansion_coeffs",
    "farey_scan",
    "farey_sequence",
    "frac_rational",
    "hurwitz_zeta",
    "local_model",
    "log_gamma",
    "phi1_rational",
    "phi_n",
    "riemann_zeta",
    "vasyunin_cot",
    "vasyunin_noncoprime",
]

__version__ = "0.1.0"
