"""Scenario configuration: one JSON document per run, SI units throughout.

Schema (all values SI):

    grid:    n_points (odd int); omega_max (rad/s, optional -- omitted means
             comb-aligned: spacing exactly 2 pi / T0)
    pump:    exactly one of energy (J) / pump_ratio (g0/g_th); tau_p (s,
             intensity FWHM); T0 (s); delta0 (rad, half the pump CEO)
    crystal: l_c (m); d_eff (m/V); n0; A_eff (m^2); omega0 (rad/s);
             signal_dispersion, pump_dispersion (4 Taylor coefficients each)
    cavity:  exactly one of r / finesse; delta_rt (rad)
    run:     optional subcommand knobs, defaults in parentheses:
             theta_points (121), theta_max (pi), N_max (100), ratios
             ([pump_ratio], or [g0 / g_th] for an energy pump), gain_cutoff
             (1e-6; in [0, 1], so mode 0 is kept whenever g0 > 0),
             n_modes_dump (8), dump_kernel (false), dump_matrices (false),
             probe_pulses (8), n_bar0 (1e6)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .cavity import CavityConfig
from .errors import ConfigError, SpopoError
from .kernel import CrystalConfig, FrequencyGrid, PumpConfig

#: reference pulse energy used to obtain mode shapes when the pump is
#: specified through a threshold ratio (gains are rescaled exactly afterwards)
REFERENCE_ENERGY = 1e-9


def _require(section: dict, section_name: str, key: str):
    if key not in section:
        raise ConfigError(f"missing required field: {section_name}.{key}")
    return section[key]


def _number(section: dict, section_name: str, key: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required field: {section_name}.{key}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {section_name}.{key} must be a number")
    return float(value)


def _validate_run_section(run: dict) -> None:
    """Type-check the subcommand knobs so bad values fail as config errors."""
    def fail(key, expected):
        raise ConfigError(f"field run.{key} must be {expected}")

    def is_number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    for key in ("N_max", "theta_points", "n_modes_dump", "probe_pulses"):
        if key in run and (isinstance(run[key], bool)
                           or not isinstance(run[key], int) or run[key] < 1):
            fail(key, "a positive integer")
    if "theta_max" in run and (not is_number(run["theta_max"])
                               or run["theta_max"] < 0):
        fail("theta_max", "a non-negative number")
    if "gain_cutoff" in run and (not is_number(run["gain_cutoff"])
                                 or not 0 <= run["gain_cutoff"] <= 1):
        fail("gain_cutoff", "a number in [0, 1]")
    if "n_bar0" in run and (not is_number(run["n_bar0"]) or run["n_bar0"] <= 0):
        fail("n_bar0", "a positive number")
    for key in ("dump_kernel", "dump_matrices"):
        if key in run and not isinstance(run[key], bool):
            fail(key, "a boolean")
    if "ratios" in run:
        ratios = run["ratios"]
        if not isinstance(ratios, list) or not ratios or any(
                isinstance(x, bool) or not isinstance(x, (int, float))
                or not 0.0 <= x < 1.0 for x in ratios):
            fail("ratios", "a non-empty list of numbers in [0, 1)")


@dataclass(frozen=True)
class ScenarioConfig:
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
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for name in ("grid", "pump", "crystal", "cavity"):
        if name not in raw or not isinstance(raw[name], dict):
            raise ConfigError(f"missing required section: {name}")
    grid_sec, pump_sec = raw["grid"], raw["pump"]
    crystal_sec, cavity_sec = raw["crystal"], raw["cavity"]
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run section must be an object")
    _validate_run_section(run)

    t0 = _number(pump_sec, "pump", "T0")
    n_points = _require(grid_sec, "grid", "n_points")
    if isinstance(n_points, bool) or not isinstance(n_points, int):
        raise ConfigError("field grid.n_points must be an integer")

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
        if "omega_max" in grid_sec:
            grid = FrequencyGrid(n_points=n_points,
                                 omega_max=_number(grid_sec, "grid", "omega_max"))
        else:
            grid = FrequencyGrid.comb_aligned(n_points, t0)
        pump = PumpConfig(
            pulse_energy=energy,
            tau_p=_number(pump_sec, "pump", "tau_p"),
            rep_period=t0,
            ceo_half=_number(pump_sec, "pump", "delta0", 0.0),
        )
        crystal = CrystalConfig(
            length=_number(crystal_sec, "crystal", "l_c"),
            d_eff=_number(crystal_sec, "crystal", "d_eff"),
            n0=_number(crystal_sec, "crystal", "n0"),
            a_eff=_number(crystal_sec, "crystal", "A_eff"),
            omega0=_number(crystal_sec, "crystal", "omega0"),
            signal_dispersion=tuple(crystal_sec.get("signal_dispersion",
                                                    (0.0, 0.0, 0.0, 0.0))),
            pump_dispersion=tuple(crystal_sec.get("pump_dispersion",
                                                  (0.0, 0.0, 0.0, 0.0))),
        )
        if has_r:
            cavity = CavityConfig(r=_number(cavity_sec, "cavity", "r"),
                                  delta_rt=_number(cavity_sec, "cavity",
                                                   "delta_rt", 0.0))
        else:
            cavity = CavityConfig.from_finesse(
                _number(cavity_sec, "cavity", "finesse"),
                delta_rt=_number(cavity_sec, "cavity", "delta_rt", 0.0))
    except ConfigError:
        raise
    except SpopoError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return ScenarioConfig(grid=grid, pump=pump, crystal=crystal, cavity=cavity,
                          pump_ratio=pump_ratio, run=run, raw=raw)
