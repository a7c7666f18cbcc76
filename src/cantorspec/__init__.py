"""cantorspec: exact spectrality toolkit for self-similar Cantor measures.

The library decides, with integer arithmetic on the verdict path, whether
a digit/candidate pair is compatible, whether the candidate's digit
expansions form a spectrum for the self-similar measure of the system
(N, D), and how to construct such candidates from the tiling structure of
the digit set; a numeric kernel corroborates every exact verdict through
the measure's Fourier transform.
"""

from .compat import (
    CompatibilityCertificate,
    is_compatible,
    lambda_enumerate,
    pair_power,
    reduce_s,
    search_candidate_s,
)
from .cyclotomic import order_vanishes
from .decide import (
    STATUS_SPECTRAL,
    STATUS_UNIT_INTERVAL,
    STATUS_UNKNOWN,
    CanonicalForm,
    SpectralityReport,
    SpectrumVerdict,
    attractor_bounds,
    canonicalize_digits,
    decide_spectrum,
    report_measure_spectrality,
    verify_witness,
)
from .kernel import (
    TruncatedProduct,
    mu_hat,
    q_eval_with_bound,
    transfer_residual,
)
from .systems import (
    DEFAULT_POLICY,
    BudgetExceededError,
    ConsistencyError,
    PreconditionError,
    RationalInterval,
    ScaleDigitSystem,
    SpectrumCandidate,
    TruncationPolicy,
)
from .tiling import (
    TilingConstruction,
    construct_spectrum_set,
    find_modulus_l,
    is_complementing,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CanonicalForm",
    "CompatibilityCertificate",
    "ConsistencyError",
    "DEFAULT_POLICY",
    "PreconditionError",
    "RationalInterval",
    "STATUS_SPECTRAL",
    "STATUS_UNIT_INTERVAL",
    "STATUS_UNKNOWN",
    "ScaleDigitSystem",
    "SpectralityReport",
    "SpectrumCandidate",
    "SpectrumVerdict",
    "TilingConstruction",
    "TruncatedProduct",
    "TruncationPolicy",
    "attractor_bounds",
    "canonicalize_digits",
    "construct_spectrum_set",
    "decide_spectrum",
    "find_modulus_l",
    "is_compatible",
    "is_complementing",
    "lambda_enumerate",
    "mu_hat",
    "order_vanishes",
    "pair_power",
    "q_eval_with_bound",
    "reduce_s",
    "report_measure_spectrality",
    "search_candidate_s",
    "transfer_residual",
    "verify_witness",
]
