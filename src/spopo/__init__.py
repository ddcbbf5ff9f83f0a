"""Below-threshold quantum optics of synchronously pumped OPOs.

Supermode decomposition of the joint down-conversion kernel, cavity
input-output squeezing and comb-pair entanglement spectra, closed-form
pulse-train covariance matrices, and the time-delay Fisher information and
its improvement over the coherent-probe limit.

Exported names load on first access (PEP 562): ``import spopo`` imports
neither numpy nor any submodule, and ``spopo.takagi`` imports
``spopo.supermodes`` the first time it is read.
"""

import importlib

__version__ = "0.1.0"

#: defining submodule of each exported name
_EXPORTS = {
    "cavity": ("CavityConfig", "ModePairTransform", "SqueezingSpectrum",
               "ThresholdResult", "check_symplectic", "comb_io",
               "resonant_r", "squeezing_spectrum", "threshold_gain"),
    "errors": ("AtThresholdError", "ConfigError", "NoFiniteThresholdError",
               "NumericalError", "SpopoError", "SpectralLeakageError",
               "ValidationError"),
    "kernel": ("CrystalConfig", "FrequencyGrid", "JointKernel", "PumpConfig",
               "build_kernel", "chi0"),
    "metrology": ("ImprovementCurve", "ProbeField", "fisher_information",
                  "improvement_curve", "optimal_probe"),
    "pulses": ("MinVarianceSolution", "PulseCovariance", "covariance",
               "duan_sum", "min_variance_transcendental", "sigma2_limit"),
    "supermodes": ("SupermodeBasis", "schmidt_decompose", "takagi"),
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
