"""E-values and e-processes for shape constraints on discrete distributions.

Tests of "mass non-increasing" and "mass unimodal around a peak",
built from two-point tilt e-values, their predictable mixtures, the
log-optimal e-value via the concave majorant of the CDF, mode
confidence sets, and step-function analogues on the half-line.
"""

__version__ = "0.1.0"

from .errors import (
    AlreadyRejected,
    AtomPresent,
    BadAlpha,
    BadInterval,
    ConfigError,
    EmptyObservations,
    EvshapeError,
    InvalidCertificate,
    InvalidSnapshot,
    MassSumViolation,
    NegativeMass,
    NegativeObservation,
    NegativeSupport,
    NegativeValue,
    NonFiniteInput,
    NonIntegerInput,
    NonNumericInput,
    NonzeroTail,
    NoViolation,
    NoViolationAt,
    SubprobabilityInput,
    SubprobabilitySampling,
    ZeroPhi,
)
from .pmf import (
    ModeInterval,
    Pmf,
    empirical,
    is_monotone,
    is_theta_unimodal,
    make_pmf,
    mode_set,
    monotone_envelope,
    pmf_from_json,
    pmf_from_text,
    sample,
    satisfies_basic_inequality,
    unimodal_envelope,
)
from .evalues import (
    EvalFn,
    PolarCertificate,
    epower,
    epower_lower_bound,
    expectation,
    is_in_polar_D,
    is_in_polar_M,
    is_xq_form,
    polar_certificate_d,
    polar_certificate_m,
    wavelet_evalue,
    wavelet_lambda,
    witness,
    xq_evalue,
)
from .numeraire import LcmResult, lcm, max_epower, numeraire_evalue, ripr
from .eprocess import (
    MonotoneTracker,
    UnimodalFamily,
    UnimodalTracker,
    numeraire_eprocess,
)
from .mode import (
    ConfidenceSetResult,
    IntSet,
    UnrestrictedTest,
    confidence_set,
    mode_estimate,
    one_obs_ci,
    one_obs_ci_finite,
    scan_halfwidth,
    strong_hull,
)
from .continuous import (
    RealInterval,
    StepDensity,
    StepFn,
    XqEvalue,
    bump_evalue,
    bump_mixture_value,
    cont_mode_ci,
    edelman_ci,
    edelman_pvalue,
    epower_cont,
    expectation_cont,
    is_in_polar_U,
    is_monotone_density,
    lcm_cont,
    make_step_density,
    numeraire_cont,
    step_density_from_json,
    xq_evalue_cont,
)
from .harness import (
    RunReport,
    ScenarioConfig,
    config_from_json,
    derive_seed,
    run_experiment,
)

__all__ = [
    "__version__",
    # errors
    "AlreadyRejected", "AtomPresent", "BadAlpha", "BadInterval",
    "ConfigError", "EmptyObservations", "EvshapeError",
    "InvalidCertificate", "InvalidSnapshot", "MassSumViolation",
    "NegativeMass", "NegativeObservation", "NegativeSupport",
    "NegativeValue", "NonFiniteInput", "NonIntegerInput", "NonNumericInput",
    "NonzeroTail", "NoViolation", "NoViolationAt", "SubprobabilityInput",
    "SubprobabilitySampling", "ZeroPhi",
    # mass tables and shapes
    "ModeInterval", "Pmf", "empirical", "is_monotone", "is_theta_unimodal",
    "make_pmf", "mode_set", "monotone_envelope", "pmf_from_json",
    "pmf_from_text", "sample", "satisfies_basic_inequality",
    "unimodal_envelope",
    # single e-values and polars
    "EvalFn", "PolarCertificate", "epower", "epower_lower_bound",
    "expectation", "is_in_polar_D", "is_in_polar_M", "is_xq_form",
    "polar_certificate_d", "polar_certificate_m", "wavelet_evalue",
    "wavelet_lambda", "witness", "xq_evalue",
    # log-optimality
    "LcmResult", "lcm", "max_epower", "numeraire_evalue", "ripr",
    # sequential
    "MonotoneTracker", "UnimodalFamily", "UnimodalTracker",
    "numeraire_eprocess",
    # mode inference
    "ConfidenceSetResult", "IntSet", "UnrestrictedTest", "confidence_set",
    "mode_estimate", "one_obs_ci", "one_obs_ci_finite", "scan_halfwidth",
    "strong_hull",
    # continuous
    "RealInterval", "StepDensity", "StepFn", "XqEvalue", "bump_evalue",
    "bump_mixture_value", "cont_mode_ci", "edelman_ci", "edelman_pvalue",
    "epower_cont", "expectation_cont", "is_in_polar_U",
    "is_monotone_density", "lcm_cont", "make_step_density",
    "numeraire_cont", "step_density_from_json", "xq_evalue_cont",
    # experiments
    "RunReport", "ScenarioConfig", "config_from_json", "derive_seed",
    "run_experiment",
]
