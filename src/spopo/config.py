"""Scenario configuration: one JSON document per run, SI units throughout.

Schema (all values SI):

    grid:    n_points (odd int, at most MAX_N_POINTS): the comb grid
             comb_grid(n_points, pump), spacing 2 pi / T0, half-width
             omega_max = (n_points - 1) pi / T0, wide enough that the pump
             spectrum does not leak out of it
    pump:    exactly one of energy (J) / pump_ratio (g0/g_th); tau_p (s,
             intensity FWHM); T0 (s); delta0 (rad, half the pump CEO)
    crystal: l_c (m); d_eff (m/V); n0; A_eff (m^2); omega0 (rad/s, above
             the grid's omega_max); signal_dispersion, pump_dispersion (4
             Taylor coefficients each)
    cavity:  exactly one of r / finesse; delta_rt (rad), which with delta0
             makes the cavity's one round-trip phase delta_rt + delta0
    run:     optional subcommand knobs: each of RUN_DEFAULTS (gain_cutoff
             in [0, 1], so mode 0 is kept whenever g0 > 0), and ratios
             ([pump_ratio], or [g0 / g_th] for an energy pump); the parsed
             run holds theta_max, n_bar0, gain_cutoff and each ratio as a
             float, whatever JSON number the config gave

Every number must be finite: Python's json reads NaN, Infinity and -Infinity,
and a config holding one anywhere above (a dispersion coefficient, a run knob
or a ratio included) is a config error, as is a sum delta_rt + delta0 that
overflows, and so is a carrier or index whose chi0 overflows (omega0^2 or
n0^3 beyond the float range) or a tau_p whose spectrum norm does.  So is a
key the schema does not name, at the top level or in any section: a
misspelled knob would otherwise run with its default.  Three physics-domain
refusals (not config errors) are decided here too: a pump spectrum that
leaks out of the grid's window (``SpectralLeakageError``); a nonzero
pump_ratio whose kernel peak, ``kernel.kernel_amplitude`` at 0, is 0 or
subnormal in magnitude, so that there is no gain to scale; and a kernel with a
non-finite entry, when ``kernel.phase_bound`` or the peak is not finite
(both ``ValidationError``).
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

#: the default of every run knob but ``ratios``; ``ScenarioConfig.run`` holds
#: each of them, from the config or from here
RUN_DEFAULTS = {"theta_points": 121, "theta_max": math.pi, "N_max": 100,
                "gain_cutoff": 1e-6, "n_modes_dump": 8, "dump_kernel": False,
                "dump_matrices": False, "probe_pulses": 8, "n_bar0": 1e6}

#: the keys each section of the schema names; the top level holds the sections
_SECTION_KEYS = {
    "grid": {"n_points"},
    "pump": {"energy", "pump_ratio", "tau_p", "T0", "delta0"},
    "crystal": {"l_c", "d_eff", "n0", "A_eff", "omega0", "signal_dispersion",
                "pump_dispersion"},
    "cavity": {"r", "finesse", "delta_rt"},
    "run": {*RUN_DEFAULTS, "ratios"},
}


def _require(section: dict, section_name: str, key: str):
    if key not in section:
        raise ConfigError(f"missing required field: {section_name}.{key}")
    return section[key]


def _refuse_unknown(section: dict, section_name: str, known) -> None:
    unknown = sorted(section.keys() - known)
    if unknown:
        raise ConfigError(
            f"unknown keys in {section_name}: {', '.join(unknown)}")


def _is_number(value) -> bool:
    """A JSON number (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(section: dict, section_name: str, key: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required field: {section_name}.{key}")
        return default
    value = section[key]
    if not _is_number(value):
        raise ConfigError(f"field {section_name}.{key} must be a finite number")
    return float(value)


def _coefficients(section: dict, section_name: str, key: str) -> tuple:
    """Four finite Taylor coefficients (all zero when the key is absent)."""
    value = section.get(key, [0.0] * 4)
    if not isinstance(value, (list, tuple)) or len(value) != 4 \
            or not all(map(_is_number, value)):
        raise ConfigError(
            f"field {section_name}.{key} must be a list of 4 finite numbers")
    return tuple(map(float, value))


def _validate_run_section(run: dict) -> None:
    """Type-check the subcommand knobs so bad values fail as config errors."""
    def fail(key, expected):
        raise ConfigError(f"field run.{key} must be {expected}")

    for key in ("N_max", "theta_points", "n_modes_dump", "probe_pulses"):
        if key in run and (isinstance(run[key], bool)
                           or not isinstance(run[key], int) or run[key] < 1):
            fail(key, "a positive integer")
    if "theta_max" in run and (not _is_number(run["theta_max"])
                               or run["theta_max"] < 0):
        fail("theta_max", "a finite non-negative number")
    if "gain_cutoff" in run and (not _is_number(run["gain_cutoff"])
                                 or not 0 <= run["gain_cutoff"] <= 1):
        fail("gain_cutoff", "a number in [0, 1]")
    if "n_bar0" in run and (not _is_number(run["n_bar0"]) or run["n_bar0"] <= 0):
        fail("n_bar0", "a finite positive number")
    for key in ("dump_kernel", "dump_matrices"):
        if key in run and not isinstance(run[key], bool):
            fail(key, "a boolean")
    if "ratios" in run:
        ratios = run["ratios"]
        if not isinstance(ratios, list) or not ratios or any(
                not _is_number(x) or not 0.0 <= x < 1.0 for x in ratios):
            fail("ratios", "a non-empty list of numbers in [0, 1)")


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
    _refuse_unknown(raw, "the config root", _SECTION_KEYS)
    for name in ("grid", "pump", "crystal", "cavity"):
        if name not in raw:
            raise ConfigError(f"missing required section: {name}")
        if not isinstance(raw[name], dict):
            raise ConfigError(f"section {name} must be an object")
    grid_sec, pump_sec = raw["grid"], raw["pump"]
    crystal_sec, cavity_sec = raw["crystal"], raw["cavity"]
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run section must be an object")
    for name, known in _SECTION_KEYS.items():
        _refuse_unknown(raw.get(name, {}), name, known)
    _validate_run_section(run)

    t0 = _number(pump_sec, "pump", "T0")
    n_points = _require(grid_sec, "grid", "n_points")
    if isinstance(n_points, bool) or not isinstance(n_points, int):
        raise ConfigError("field grid.n_points must be an integer")
    if n_points > MAX_N_POINTS:
        raise ConfigError(
            f"field grid.n_points = {n_points} exceeds {MAX_N_POINTS}, the "
            "largest grid whose n_points x n_points kernel numpy can lay out")

    has_energy = "energy" in pump_sec
    has_ratio = "pump_ratio" in pump_sec
    if has_energy == has_ratio:
        raise ConfigError("pump needs exactly one of energy / pump_ratio")
    if has_ratio:
        pump_ratio = _number(pump_sec, "pump", "pump_ratio")
        if not 0.0 <= pump_ratio < 1.0:
            raise ConfigError("pump.pump_ratio must lie in [0, 1)")
        energy = REFERENCE_ENERGY
    else:
        pump_ratio = None
        energy = _number(pump_sec, "pump", "energy")
        if energy < 0:
            raise ConfigError("pump.energy must be >= 0")

    has_r = "r" in cavity_sec
    has_finesse = "finesse" in cavity_sec
    if has_r == has_finesse:
        raise ConfigError("cavity needs exactly one of r / finesse")

    try:
        pump = PumpConfig(
            pulse_energy=energy,
            tau_p=_number(pump_sec, "pump", "tau_p"),
            rep_period=t0,
        )
        crystal = CrystalConfig(
            length=_number(crystal_sec, "crystal", "l_c"),
            d_eff=_number(crystal_sec, "crystal", "d_eff"),
            n0=_number(crystal_sec, "crystal", "n0"),
            a_eff=_number(crystal_sec, "crystal", "A_eff"),
            omega0=_number(crystal_sec, "crystal", "omega0"),
            signal_dispersion=_coefficients(crystal_sec, "crystal",
                                            "signal_dispersion"),
            pump_dispersion=_coefficients(crystal_sec, "crystal",
                                          "pump_dispersion"),
        )
        phase = (_number(cavity_sec, "cavity", "delta_rt", 0.0)
                 + _number(pump_sec, "pump", "delta0", 0.0))
        if has_r:
            cavity = CavityConfig(r=_number(cavity_sec, "cavity", "r"),
                                  phase=phase)
        else:
            cavity = CavityConfig.from_finesse(
                _number(cavity_sec, "cavity", "finesse"), phase=phase)
        # the window comes last, so a leaking config with a malformed field
        # is refused as a config error
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
    # a new dict: raw, and so config_hash, stays as the file gave it; an
    # integer beyond int64 would turn a numpy array built from it into an
    # object array
    run = RUN_DEFAULTS | run
    run.update({key: float(run[key])
                for key in ("theta_max", "gain_cutoff", "n_bar0")})
    if "ratios" in run:
        run["ratios"] = [float(x) for x in run["ratios"]]
    return ScenarioConfig(grid=grid, pump=pump, crystal=crystal, cavity=cavity,
                          pump_ratio=pump_ratio, run=run, raw=raw)
