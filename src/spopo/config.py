"""Scenario configuration: one JSON document per run, SI units throughout.

``_SCHEMA`` is the one statement of the schema: each section's keys, with
each key's kind and default.  ``parse_scenario`` refuses, section by section
in its order, a section that is not an object, an unknown key (a misspelled
knob would otherwise run with its default), a missing required key and a
malformed value, each as a config error, and only then the cross-field
faults below.  The keys, in SI:

    grid:    n_points (odd, at most MAX_N_POINTS): the comb grid
             comb_grid(n_points, pump), spacing 2 pi / T0, half-width
             omega_max = (n_points - 1) pi / T0, wide enough that the pump
             spectrum does not leak out of it
    pump:    exactly one of energy (J) / pump_ratio (g0/g_th); tau_p (s,
             intensity FWHM); T0 (s); delta0 (rad, half the pump CEO)
    crystal: l_c (m); d_eff (m/V); n0; A_eff (m^2); omega0 (rad/s, above
             the grid's omega_max); signal_dispersion, pump_dispersion
             (Taylor coefficients)
    cavity:  exactly one of r / finesse; delta_rt (rad), which with delta0
             makes the cavity's one round-trip phase delta_rt + delta0
    run:     optional subcommand knobs (gain_cutoff in [0, 1], so mode 0 is
             kept whenever g0 > 0); with no ratios, metrology reads
             [pump_ratio], or [g0 / g_th] for an energy pump

Every number must be finite (Python's json reads NaN, Infinity and
-Infinity).  A sum delta_rt + delta0 that overflows is a config error, and so
is a carrier or index whose chi0 overflows (omega0^2 or n0^3 beyond the float
range) or a tau_p whose spectrum norm does.  Three physics-domain refusals
(not config errors) are decided here too: a pump spectrum that leaks out of
the grid's window (``SpectralLeakageError``); a nonzero pump_ratio whose
kernel peak, ``kernel.kernel_amplitude`` at 0, is 0 or subnormal in
magnitude, so that there is no gain to scale; and a kernel with a non-finite
entry, when ``kernel.phase_bound`` or the peak is not finite (both
``ValidationError``).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .cavity import CavityConfig
from .errors import (ConfigError, SpectralLeakageError, SpopoError,
                     ValidationError)
from .kernel import (CrystalConfig, FrequencyGrid, PumpConfig, comb_grid,
                     kernel_amplitude, phase_bound)

#: reference pulse energy used to obtain mode shapes when the pump is
#: specified through a threshold ratio (gains are rescaled exactly afterwards)
REFERENCE_ENERGY = 1e-9

#: the largest grid.n_points whose n x n float64 kernel numpy can lay out:
#: an array's size in bytes must fit in a signed index, sys.maxsize
MAX_N_POINTS = math.isqrt(sys.maxsize // 8)

#: the marks of a key with no default value: a missing _REQUIRED key is
#: refused, a missing _OPTIONAL one is absent from the parsed section
_REQUIRED, _OPTIONAL = object(), object()


def _is_number(value) -> bool:
    """A JSON number (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: a key's kind: the test its value passes, the phrase that names the test
#: in a refusal, and the parsed value
_NUMBER = (_is_number, "a finite number", float)
_COUNT = (lambda v: _is_integer(v) and v >= 1, "a positive integer", int)
_BOOLEAN = (lambda v: isinstance(v, bool), "a boolean", bool)
_COEFFICIENTS = (lambda v: isinstance(v, (list, tuple)) and len(v) == 4
                 and all(map(_is_number, v)),
                 "a list of 4 finite numbers", lambda v: tuple(map(float, v)))

#: the schema: each section's keys, with each key's kind and its default.
#: The parsed run holds every knob but an absent ratios, and a float knob as
#: a float whatever JSON number the config gave (an integer beyond int64
#: would turn a numpy array built from it into an object array)
_SCHEMA = {
    "grid": {"n_points": ((_is_integer, "an integer", int), _REQUIRED)},
    "pump": {"energy": (_NUMBER, _OPTIONAL),
             "pump_ratio": (_NUMBER, _OPTIONAL), "tau_p": (_NUMBER, _REQUIRED),
             "T0": (_NUMBER, _REQUIRED), "delta0": (_NUMBER, 0.0)},
    "crystal": {"l_c": (_NUMBER, _REQUIRED), "d_eff": (_NUMBER, _REQUIRED),
                "n0": (_NUMBER, _REQUIRED), "A_eff": (_NUMBER, _REQUIRED),
                "omega0": (_NUMBER, _REQUIRED),
                "signal_dispersion": (_COEFFICIENTS, (0.0,) * 4),
                "pump_dispersion": (_COEFFICIENTS, (0.0,) * 4)},
    "cavity": {"r": (_NUMBER, _OPTIONAL), "finesse": (_NUMBER, _OPTIONAL),
               "delta_rt": (_NUMBER, 0.0)},
    "run": {
        "theta_points": (_COUNT, 121),
        "theta_max": ((lambda v: _is_number(v) and v >= 0,
                       "a finite non-negative number", float), math.pi),
        "N_max": (_COUNT, 100),
        "gain_cutoff": ((lambda v: _is_number(v) and 0 <= v <= 1,
                         "a number in [0, 1]", float), 1e-6),
        "n_modes_dump": (_COUNT, 8),
        "dump_kernel": (_BOOLEAN, False),
        "dump_matrices": (_BOOLEAN, False),
        "probe_pulses": (_COUNT, 8),
        "n_bar0": ((lambda v: _is_number(v) and v > 0,
                    "a finite positive number", float), 1e6),
        "ratios": ((lambda v: isinstance(v, list) and v != [] and all(
            _is_number(x) and 0.0 <= x < 1.0 for x in v),
            "a non-empty list of numbers in [0, 1)",
            lambda v: [float(x) for x in v]), _OPTIONAL),
    },
}


def _parse_section(raw: dict, name: str) -> dict:
    """Section ``name`` of ``raw`` as a new dict of parsed values, with the
    defaults filled in; refuses a required section that is missing, a
    section that is not an object, unknown keys, a missing required key and
    a malformed value."""
    if name not in raw and name != "run":
        raise ConfigError(f"missing required section: {name}")
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError("run section must be an object" if name == "run"
                          else f"section {name} must be an object")
    unknown = sorted(section.keys() - _SCHEMA[name])
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {', '.join(unknown)}")
    parsed = {}
    for key, ((test, phrase, parse), default) in _SCHEMA[name].items():
        if key in section:
            if not test(section[key]):
                raise ConfigError(f"field {name}.{key} must be {phrase}")
            parsed[key] = parse(section[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field: {name}.{key}")
        elif default is not _OPTIONAL:
            parsed[key] = default
    return parsed


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed config.  ``grid`` comes from ``comb_grid``, so it does not
    leak; ``run`` is a new dict of every run knob, ``raw`` the JSON as
    given."""

    grid: FrequencyGrid
    pump: PumpConfig
    crystal: CrystalConfig
    cavity: CavityConfig
    pump_ratio: float | None
    run: dict
    raw: dict

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_scenario(path: str | Path) -> ScenarioConfig:
    # json.loads detects UTF-8, -16 or -32 in bytes (RFC 8259), so the
    # locale plays no part
    try:
        raw = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config is not UTF-8, UTF-16 or UTF-32 text: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(raw.keys() - _SCHEMA)
    if unknown:
        raise ConfigError(
            f"unknown keys in the config root: {', '.join(unknown)}")
    # new dicts: raw, and so config_hash, stays as the file gave it
    grid_sec, pump_sec, crystal_sec, cavity_sec, run = (
        _parse_section(raw, name) for name in _SCHEMA)

    n_points = grid_sec["n_points"]
    if n_points > MAX_N_POINTS:
        raise ConfigError(
            f"field grid.n_points = {n_points} exceeds {MAX_N_POINTS}, the "
            "largest grid whose n_points x n_points kernel numpy can lay out")
    if ("energy" in pump_sec) == ("pump_ratio" in pump_sec):
        raise ConfigError("pump needs exactly one of energy / pump_ratio")
    pump_ratio = pump_sec.get("pump_ratio")
    if pump_ratio is not None:
        if not 0.0 <= pump_ratio < 1.0:
            raise ConfigError("pump.pump_ratio must lie in [0, 1)")
        energy = REFERENCE_ENERGY
    else:
        energy = pump_sec["energy"]
        if energy < 0:
            raise ConfigError("pump.energy must be >= 0")
    if ("r" in cavity_sec) == ("finesse" in cavity_sec):
        raise ConfigError("cavity needs exactly one of r / finesse")

    try:
        pump = PumpConfig(pulse_energy=energy, tau_p=pump_sec["tau_p"],
                          rep_period=pump_sec["T0"])
        crystal = CrystalConfig(
            length=crystal_sec["l_c"], d_eff=crystal_sec["d_eff"],
            n0=crystal_sec["n0"], a_eff=crystal_sec["A_eff"],
            omega0=crystal_sec["omega0"],
            signal_dispersion=crystal_sec["signal_dispersion"],
            pump_dispersion=crystal_sec["pump_dispersion"])
        phase = cavity_sec["delta_rt"] + pump_sec["delta0"]
        if "r" in cavity_sec:
            cavity = CavityConfig(r=cavity_sec["r"], phase=phase)
        else:
            cavity = CavityConfig.from_finesse(cavity_sec["finesse"],
                                               phase=phase)
        # the window comes after the pump, crystal and cavity, so a leaking
        # config that one of them refuses is a config error
        grid = comb_grid(n_points, pump)
        if crystal.omega0 <= grid.omega_max:
            raise ConfigError(
                f"crystal.omega0 = {crystal.omega0:.6g} rad/s must exceed the "
                f"grid's omega_max = {grid.omega_max:.6g} rad/s, so that "
                "omega0 + omega stays positive on the grid")
        peak = kernel_amplitude(0.0, grid, pump, crystal)
    except (ConfigError, SpectralLeakageError):
        raise
    except SpopoError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if pump_ratio and abs(peak) < sys.float_info.min:
        # a zero or subnormal kernel has no gain to scale to the ratio
        raise ValidationError(
            "cannot scale to a nonzero pump ratio: the kernel's peak "
            f"{peak:.6g} is below the smallest normal float in magnitude")
    if not (math.isfinite(phase_bound(grid, crystal)) and math.isfinite(peak)):
        raise ValidationError("kernel matrix has non-finite entries")
    return ScenarioConfig(grid=grid, pump=pump, crystal=crystal, cavity=cavity,
                          pump_ratio=pump_ratio, run=run, raw=raw)
