"""Growth analysis of exponential-type entire functions.

The library builds an entire function of exponential type from a dyadic
lattice of zeros, evaluates it through a closed product form, moves to the
transform side via its Taylor coefficients, inverts back along circles and
open contours, and finally quantifies how irregularly the function grows
compared with classical controls.
"""
from .borel import (
    BorelDomainError,
    BorelEvaluator,
    CoefficientStream,
    term_envelope,
    write_coeffs_csv,
)
from .contours import (
    CancellationCapError,
    CirclePath,
    Contour,
    F_eval,
    IntegralResult,
    LineSegment,
    NonConvergenceError,
    QuadratureSpec,
    SpiralArc,
    borel_inversion,
    closing_segment,
    integrate,
    spiral_arc,
    splitting_profile,
    u_decay_bound,
    u_eval,
    write_borel_check_csv,
    write_identity_csv,
)
from .diagnostics import (
    InsufficientSamplesError,
    RegularityVerdict,
    WindowStats,
    classify,
    exp2_profile,
    sin2_profile,
    type_estimate,
    window_stats,
    write_verdict_json,
    write_windows_csv,
)
from .lattice import (
    CountingReport,
    LatticeExhaustedError,
    ZeroLattice,
    verify_counting_bounds,
    write_zeros_csv,
)
from .lognum import LogComplex
from .product import (
    GrowthProfile,
    ProductEvaluator,
    dyadic_radii,
    write_profile_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BorelDomainError",
    "BorelEvaluator",
    "CancellationCapError",
    "CirclePath",
    "CoefficientStream",
    "Contour",
    "CountingReport",
    "F_eval",
    "GrowthProfile",
    "InsufficientSamplesError",
    "IntegralResult",
    "LatticeExhaustedError",
    "LineSegment",
    "LogComplex",
    "NonConvergenceError",
    "ProductEvaluator",
    "QuadratureSpec",
    "RegularityVerdict",
    "SpiralArc",
    "WindowStats",
    "ZeroLattice",
    "borel_inversion",
    "classify",
    "closing_segment",
    "dyadic_radii",
    "exp2_profile",
    "integrate",
    "sin2_profile",
    "spiral_arc",
    "splitting_profile",
    "term_envelope",
    "type_estimate",
    "u_decay_bound",
    "u_eval",
    "verify_counting_bounds",
    "window_stats",
    "write_borel_check_csv",
    "write_coeffs_csv",
    "write_identity_csv",
    "write_profile_csv",
    "write_verdict_json",
    "write_windows_csv",
    "write_zeros_csv",
    "__version__",
]
