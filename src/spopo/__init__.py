"""Below-threshold quantum optics of synchronously pumped OPOs.

Supermode decomposition of the joint down-conversion kernel, cavity
input-output squeezing and comb-pair entanglement spectra, closed-form
pulse-train covariance matrices, and quantum Cramer-Rao bounds for
time-delay estimation.
"""

__version__ = "0.1.0"

from .cavity import (CavityConfig, SqueezingSpectrum, ThresholdResult,
                     comb_io, epr_pair_check, pair_covariance,
                     resonant_r, squeezing_spectrum, threshold_gain)
from .errors import (AboveThresholdError, AtThresholdError, ConfigError,
                     NoFiniteThresholdError, NumericalError, SpopoError,
                     SpectralLeakageError, ValidationError)
from .kernel import (CrystalConfig, FrequencyGrid, JointKernel, PumpConfig,
                     build_kernel, chi0, phase_matching)
from .metrology import (ImprovementCurve, MetrologyResult, ProbeField,
                        TranslationGenerator, cramer_rao, fisher_information,
                        improvement_curve, omega_matrix, optimal_probe)
from .pulses import (MinVarianceSolution, PulseCovariance, covariance,
                     duan_sum, io_series_coefficients, min_variance_direct,
                     min_variance_transcendental, sigma2_limit)
from .supermodes import (CombFunction, SupermodeBasis, comb_inner_product,
                         project_pulse, pulse_train_from_coefficients,
                         schmidt_decompose, synthesize_comb, takagi)
from .symplectic import (ModePairTransform, check_symplectic, compose,
                         minimum_quadrature_variance, output_covariance,
                         quadrature_matrix)

__all__ = [
    "AboveThresholdError", "AtThresholdError", "CavityConfig", "CombFunction",
    "ConfigError", "CrystalConfig", "FrequencyGrid",
    "ImprovementCurve", "JointKernel", "MetrologyResult",
    "MinVarianceSolution", "ModePairTransform", "NoFiniteThresholdError",
    "NumericalError", "ProbeField", "PulseCovariance", "PumpConfig",
    "SpopoError", "SpectralLeakageError", "SqueezingSpectrum",
    "SupermodeBasis", "ThresholdResult", "TranslationGenerator",
    "ValidationError", "build_kernel", "check_symplectic", "chi0", "comb_io",
    "comb_inner_product", "compose", "covariance", "cramer_rao", "duan_sum",
    "epr_pair_check", "fisher_information", "improvement_curve",
    "io_series_coefficients", "min_variance_direct",
    "min_variance_transcendental", "minimum_quadrature_variance",
    "omega_matrix", "optimal_probe", "output_covariance", "pair_covariance",
    "phase_matching", "project_pulse", "pulse_train_from_coefficients",
    "quadrature_matrix", "resonant_r", "schmidt_decompose", "sigma2_limit",
    "squeezing_spectrum", "synthesize_comb", "takagi", "threshold_gain",
]
