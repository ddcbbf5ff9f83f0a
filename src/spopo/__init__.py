"""Below-threshold quantum optics of synchronously pumped OPOs.

Supermode decomposition of the joint down-conversion kernel, cavity
input-output squeezing and comb-pair entanglement spectra, closed-form
pulse-train covariance matrices, and quantum Cramer-Rao bounds for
time-delay estimation.

Exported names load on first access (PEP 562): ``import spopo`` imports
neither numpy nor any submodule, and ``spopo.takagi`` imports
``spopo.supermodes`` the first time it is read.
"""

import importlib

__version__ = "0.1.0"

#: defining submodule of each exported name
_EXPORTS = {
    "cavity": ("CavityConfig", "SqueezingSpectrum", "ThresholdResult",
               "comb_io", "epr_pair_check", "pair_covariance", "resonant_r",
               "squeezing_spectrum", "threshold_gain"),
    "errors": ("AboveThresholdError", "AtThresholdError", "ConfigError",
               "NoFiniteThresholdError", "NumericalError", "SpopoError",
               "SpectralLeakageError", "ValidationError"),
    "kernel": ("CrystalConfig", "FrequencyGrid", "JointKernel", "PumpConfig",
               "build_kernel", "chi0", "phase_matching"),
    "metrology": ("ImprovementCurve", "MetrologyResult", "ProbeField",
                  "TranslationGenerator", "cramer_rao", "fisher_information",
                  "improvement_curve", "omega_matrix", "optimal_probe"),
    "pulses": ("MinVarianceSolution", "PulseCovariance", "covariance",
               "duan_sum", "io_series_coefficients", "min_variance_direct",
               "min_variance_transcendental", "sigma2_limit"),
    "supermodes": ("CombFunction", "SupermodeBasis", "comb_inner_product",
                   "project_pulse", "pulse_train_from_coefficients",
                   "schmidt_decompose", "synthesize_comb", "takagi"),
    "symplectic": ("ModePairTransform", "check_symplectic", "compose",
                   "minimum_quadrature_variance", "output_covariance",
                   "quadrature_matrix"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
