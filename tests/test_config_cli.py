import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spopo.cli
import spopo.metrology
import spopo.pulses
import spopo.supermodes
from spopo import (CavityConfig, ConfigError, SpectralLeakageError,
                   ValidationError, build_kernel, duan_sum, optimal_probe,
                   schmidt_decompose, threshold_gain)
from spopo.supermodes import takagi_values
from spopo.cli import BASIS_FILE, SPECTRUM_FILE, _write_csv, main
from spopo.config import MAX_N_POINTS, load_scenario, parse_scenario

from conftest import (OMEGA0, PUMP_DISPERSION, SIGNAL_DISPERSION, T0, TAU_P)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"

#: Linux refuses a request larger than RAM and swap, unless its overcommit
#: mode is 1 ("always"); elsewhere such a request may be granted lazily
_OVERCOMMIT = Path("/proc/sys/vm/overcommit_memory")
REFUSES_HUGE_ALLOCATIONS = (_OVERCOMMIT.exists()
                            and _OVERCOMMIT.read_text().strip() != "1")


def scenario_dict(**overrides):
    raw = {
        "grid": {"n_points": 171},
        "pump": {"pump_ratio": 0.8, "tau_p": TAU_P, "T0": T0, "delta0": 0.0},
        "crystal": {"l_c": 5e-4, "d_eff": 2e-12, "n0": 1.8, "A_eff": 1e-9,
                    "omega0": OMEGA0,
                    "signal_dispersion": list(SIGNAL_DISPERSION),
                    "pump_dispersion": list(PUMP_DISPERSION)},
        "cavity": {"r": 0.8894, "delta_rt": 0.0},
        "run": {"N_max": 12, "theta_points": 21, "theta_max": 0.5,
                "ratios": [0.0, 0.5], "probe_pulses": 3, "n_bar0": 1e6},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            raw[section][field] = value
        else:
            raw[section] = value
    return raw


def write_config(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def src_env():
    """Environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def forbid_full_eigensolves(monkeypatch, size):
    """Make np.linalg.eigh and eigvalsh refuse matrices of ``size`` rows or
    more: the kernel, but not a Lanczos tridiagonal."""
    def small_only(solver):
        def guarded(a, *args, **kwargs):
            if np.shape(a)[0] >= size:
                raise AssertionError("full eigensolve of the kernel")
            return solver(a, *args, **kwargs)
        return guarded

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, small_only(getattr(np.linalg, name)))


def load_table(path):
    """Parse a '#'-metadata CSV into a dict of named float columns."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


class TestConfigValidation:
    def test_valid_config_parses(self):
        cfg = parse_scenario(scenario_dict())
        assert cfg.cavity.r == 0.8894
        assert cfg.pump_ratio == 0.8
        assert cfg.grid.delta_omega == pytest.approx(2 * np.pi / T0, rel=1e-12)
        # the grid and the pump hold the one parsed T0
        assert cfg.grid.rep_period == cfg.pump.rep_period == T0

    def test_carrier_must_exceed_grid_half_width(self):
        # the boundary of optimal_probe's omega0 + omega > 0 on the grid
        omega_max = parse_scenario(scenario_dict()).grid.omega_max
        with pytest.raises(ConfigError, match="crystal.omega0"):
            parse_scenario(scenario_dict(**{"crystal.omega0": omega_max}))
        above = float(np.nextafter(omega_max, np.inf))
        cfg = parse_scenario(scenario_dict(**{"crystal.omega0": above}))
        assert np.all(cfg.crystal.omega0 + cfg.grid.omegas > 0.0)

    def test_largest_grid_is_the_largest_kernel_numpy_holds(self):
        # the bound is parsed, not allocated: the next odd size is refused,
        # and a kernel one row wider than the bound is beyond numpy's array
        # size
        raw = scenario_dict(**{"crystal.omega0": 1e40})
        raw["grid"]["n_points"] = MAX_N_POINTS
        assert parse_scenario(raw).grid.n_points == MAX_N_POINTS
        raw["grid"]["n_points"] = MAX_N_POINTS + 2
        with pytest.raises(ConfigError, match="grid.n_points"):
            parse_scenario(raw)
        with pytest.raises(ValueError, match="array is too big"):
            np.empty((MAX_N_POINTS + 1, MAX_N_POINTS + 1))

    def test_missing_t0_names_field(self):
        raw = scenario_dict()
        del raw["pump"]["T0"]
        with pytest.raises(ConfigError, match="pump.T0"):
            parse_scenario(raw)

    def test_energy_and_ratio_exclusive(self):
        raw = scenario_dict(**{"pump.energy": 1e-9})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(raw)
        del raw["pump"]["energy"]
        del raw["pump"]["pump_ratio"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(raw)

    def test_field_types_before_cross_field_checks(self):
        # each field is checked, section by section, before the pump's
        # exactly-one-of: a later section's malformed field is named first
        raw = scenario_dict(**{"pump.energy": 1e-9, "crystal.l_c": "x"})
        with pytest.raises(ConfigError,
                           match=r"^field crystal\.l_c must be a finite "
                                 r"number$"):
            parse_scenario(raw)

    def test_r_and_finesse_exclusive(self):
        raw = scenario_dict(**{"cavity.finesse": 30.0})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(raw)

    def test_physical_validation_becomes_config_error(self):
        with pytest.raises(ConfigError, match="invalid configuration"):
            parse_scenario(scenario_dict(**{"pump.tau_p": T0}))
        with pytest.raises(ConfigError,
                           match=r"pump_ratio must lie in \[0, 1\)"):
            parse_scenario(scenario_dict(**{"pump.pump_ratio": 1.0}))
        raw = scenario_dict(**{"pump.energy": -1e-9})
        del raw["pump"]["pump_ratio"]
        with pytest.raises(ConfigError, match="pump.energy must be >= 0"):
            parse_scenario(raw)

    def test_leaking_window_refused_at_parse(self):
        # a physics-domain refusal, decided with no kernel: it passes the
        # config-error wrapper unchanged, so the parsed grid cannot leak
        with pytest.raises(SpectralLeakageError, match="grid.n_points") \
                as refused:
            parse_scenario(scenario_dict(**{"grid": {"n_points": 41}}))
        assert type(refused.value) is SpectralLeakageError

    def test_float_run_knobs_are_floats(self):
        # an integer beyond int64 would make numpy build an object array;
        # raw, and so config_hash, keeps what the config gave
        raw = scenario_dict(**{"run.theta_max": 10**19, "run.n_bar0": 1000,
                               "run.gain_cutoff": 0, "run.ratios": [0, 0.5]})
        cfg = parse_scenario(raw)
        assert [type(cfg.run[key]) for key in ("theta_max", "n_bar0",
                                               "gain_cutoff")] == [float] * 3
        assert cfg.run["theta_max"] == 1e19
        assert cfg.run["ratios"] == [0.0, 0.5]
        assert all(type(x) is float for x in cfg.run["ratios"])
        assert raw["run"]["theta_max"] == 10**19
        assert raw["run"]["ratios"] == [0, 0.5]
        assert type(raw["run"]["ratios"][0]) is int

    @pytest.mark.parametrize("command", ["supermodes", "squeezing", "pulses",
                                         "metrology"])
    def test_overflowing_round_trip_phase(self, tmp_path, capsys, command):
        # each phase is finite, their sum is not: refused before --out exists
        raw = scenario_dict(**{"cavity.delta_rt": 1e308, "pump.delta0": 1e308})
        out = tmp_path / "o"
        code = main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "delta_rt + delta0" in err["message"]
        assert not out.exists()

    def test_run_section_types(self):
        with pytest.raises(ConfigError, match="run.ratios"):
            parse_scenario(scenario_dict(**{"run.ratios": [0.5, "x"]}))
        with pytest.raises(ConfigError, match="run.N_max"):
            parse_scenario(scenario_dict(**{"run.N_max": "many"}))
        with pytest.raises(ConfigError, match="run.ratios"):
            parse_scenario(scenario_dict(**{"run.ratios": [1.0]}))
        with pytest.raises(ConfigError, match="run.dump_kernel"):
            parse_scenario(scenario_dict(**{"run.dump_kernel": "yes"}))
        with pytest.raises(ConfigError, match="run section must be an object"):
            parse_scenario(scenario_dict(run=[12]))

    def test_run_defaults_fill_a_new_dict(self):
        # a config without a run section gets every documented default; its
        # raw document, and so its hash, stay as given
        raw = scenario_dict()
        del raw["run"]
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        cfg = parse_scenario(raw)
        assert cfg.run == {"theta_points": 121, "theta_max": np.pi,
                           "N_max": 100, "gain_cutoff": 1e-6,
                           "n_modes_dump": 8, "dump_kernel": False,
                           "dump_matrices": False, "probe_pulses": 8,
                           "n_bar0": 1e6}
        assert "run" not in cfg.raw
        assert json.dumps(raw, sort_keys=True, separators=(",", ":")) \
            == canonical
        assert cfg.config_hash \
            == hashlib.sha256(canonical.encode()).hexdigest()[:16]
        # a given knob wins, and the given run section is left as it was
        raw = scenario_dict()
        cfg = parse_scenario(raw)
        assert raw["run"] == scenario_dict()["run"]
        assert cfg.run == dict(scenario_dict()["run"], gain_cutoff=1e-6,
                               n_modes_dump=8, dump_kernel=False,
                               dump_matrices=False)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)
        path.write_text("[1]")
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            load_scenario(path)
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_scenario(tmp_path / "absent.json")

    def test_config_encoding_is_detected(self, tmp_path, capsys):
        # json.loads reads UTF-8, -16 or -32 bytes whatever the locale; a
        # UTF-16 byte-order mark with half a code unit after it is none
        path = write_config(tmp_path, scenario_dict())
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(path.read_text().encode("utf-16"))
        assert load_scenario(utf16).raw == load_scenario(path).raw
        path.write_bytes(b"\xff\xfe{")
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "UTF-16" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        (None, "cavty"), ("grid", "npoints"), ("pump", "tau"),
        ("crystal", "length"), ("cavity", "delta"), ("run", "Nmax")])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, section,
                                         key):
        # a misspelled key would otherwise run with its default
        raw = scenario_dict()
        (raw if section is None else raw[section])[key] = 7
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert err["message"].endswith(f"{section or 'the config root'}: {key}")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["grid", "pump", "crystal", "cavity"])
    def test_section_not_an_object_is_config_error(self, tmp_path, capsys,
                                                   section):
        # the section is there, so "missing" would point at the wrong fault
        path = write_config(tmp_path, scenario_dict(**{section: [171]}))
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert err["message"] == f"section {section} must be an object"
        assert not out.exists()

    def test_undecodable_config_as_process(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{")
        proc = subprocess.run(
            [sys.executable, "-m", "spopo.cli", "pulses", "--config",
             str(path), "--out", str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "config-error"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()


class TestCliRuns:
    def test_missing_field_exit_code(self, tmp_path, capsys):
        for section, key, message in [
                ("pump", "T0", "missing required field: pump.T0"),
                ("grid", "n_points", "missing required field: grid.n_points"),
                (None, "cavity", "missing required section: cavity")]:
            raw = scenario_dict()
            del (raw if section is None else raw[section])[key]
            path = write_config(tmp_path, raw)
            code = main(["pulses", "--config", str(path), "--out",
                         str(tmp_path)])
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config-error"
            assert message in err["message"]

    def test_pulses_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sigma2.csv").read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "N,g,r,sigma2_abs,sigma2_normalized,theta_sol"
        body = load_table(out / "sigma2.csv")
        assert body["N"].size == 12
        assert np.all(np.diff(body["sigma2_abs"]) <= 1e-15)
        # columns are rounded independently at 12 significant digits
        np.testing.assert_allclose(body["sigma2_normalized"],
                                   body["sigma2_abs"] / 0.5, rtol=1e-10)
        duan = load_table(out / "duan.csv")
        assert duan["separation"].size == 11

    def test_supermodes_outputs(self, tmp_path):
        raw = scenario_dict(**{"run.dump_kernel": True, "run.n_modes_dump": 2})
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["supermodes", "--config", str(path), "--out", str(out)]) == 0
        gains = load_table(out / "gains.csv")
        assert gains["index"].size == 171
        assert np.all(np.diff(gains["gain"]) <= 1e-15)
        assert (out / "mode_000.csv").exists()
        assert (out / "mode_001.csv").exists()
        # the kernel is real: the im column is all "0", as the dump of a
        # complex copy with zero imaginary part printed it
        cfg = load_scenario(path)
        matrix = build_kernel(cfg.grid.n_points, cfg.pump, cfg.crystal).matrix
        body = [ln for ln in (out / "kernel.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert body[0] == "re,im"
        assert body[1:] == ["%.12g,0" % x for x in matrix.ravel()]
        assert len(body) == 1 + 171 * 171

    def test_squeezing_outputs(self, tmp_path):
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "out"
        assert main(["squeezing", "--config", str(path), "--out", str(out)]) == 0
        table = load_table(out / "squeezing.csv")
        mode0 = table["mode"] == 0
        center = mode0 & (table["theta"] == 0.0)
        assert table["var_p"][center][0] < 0.5 < table["var_x"][center][0]
        assert np.isnan(table["epr_variance"][center][0])
        off_center = mode0 & (table["theta"] != 0.0)
        assert np.all(np.isfinite(table["epr_variance"][off_center]))

    def test_metrology_outputs_and_flat_zero_ratio(self, tmp_path):
        raw = scenario_dict(**{"pump.pump_ratio": 0.0})
        del raw["run"]["ratios"]
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["metrology", "--config", str(path), "--out", str(out)]) == 0
        table = load_table(out / "metrology.csv")
        np.testing.assert_allclose(table["improvement"], 1.0, atol=1e-14)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_pulses_to_asymptote"] == [1]
        assert (out / "probe.csv").exists()

    @pytest.mark.parametrize("command, pump", [
        ("squeezing", {"pump_ratio": 0.8})], ids=["squeezing"])
    def test_gains_only_runs_build_no_eigenvectors(self, tmp_path, monkeypatch,
                                                   command, pump):
        # squeezing reads the gains alone
        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        raw = scenario_dict()
        del raw["pump"]["pump_ratio"]
        raw["pump"].update(pump)
        path = write_config(tmp_path, raw)
        monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
        assert main([command, "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 0

    def test_metrology_takes_no_full_eigh(self, tmp_path, monkeypatch):
        # the bound reads g0 and psi0: Lanczos, no eigensolve of the kernel
        path = write_config(tmp_path, scenario_dict(**{"grid.n_points": 341}))
        forbid_full_eigensolves(monkeypatch, 341)
        assert main(["metrology", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 0

    def test_energy_pulses_reads_metrology_g0(self, tmp_path, monkeypatch):
        # an energy pump's g0 comes from the top Lanczos pair, as in
        # metrology: no full eigensolve of the kernel, and the same value
        raw = scenario_dict(**{"grid.n_points": 341})
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 2e-10
        path = write_config(tmp_path, raw)
        cfg = load_scenario(path)
        full_g0 = takagi_values(build_kernel(cfg.grid.n_points, cfg.pump,
                                             cfg.crystal))[0]
        forbid_full_eigensolves(monkeypatch, 341)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["gain0"])
            return optimal_probe(*args, **kwargs)

        monkeypatch.setattr(spopo.metrology, "optimal_probe", spy)
        for command in ("pulses", "metrology"):
            assert main([command, "--config", str(path), "--out",
                         str(tmp_path / command)]) == 0
        (g0,) = seen
        table = load_table(tmp_path / "pulses" / "sigma2.csv")
        assert np.all(table["g"] == float(spopo.cli._FLOAT_FMT % g0))
        assert g0 == pytest.approx(full_g0, rel=1e-12, abs=0)

    def test_supermodes_modes_match_full_decomposition(self, tmp_path):
        raw = scenario_dict(**{"grid.n_points": 341, "run.n_modes_dump": 3})
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["supermodes", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_scenario(path)
        basis = schmidt_decompose(build_kernel(cfg.grid.n_points, cfg.pump,
                                               cfg.crystal),
                                  cfg.run["gain_cutoff"])
        gains = load_table(out / "gains.csv")["gain"]
        scale = 0.8 * threshold_gain(cfg.cavity).gain / basis.gains[0]
        assert np.abs(gains - scale * basis.gains).max() \
            <= 2e-12 * gains[0]
        for n in range(3):
            mode = load_table(out / f"mode_{n:03d}.csv")
            psi = basis.modes_freq[:, n]
            error = np.abs(mode["re_psi"] + 1j * mode["im_psi"] - psi)
            assert error.max() <= 1e-11 * np.abs(psi).max()
        assert not (out / "mode_003.csv").exists()

    def test_supermodes_gain_mismatch_takes_full_decomposition(
            self, tmp_path, monkeypatch):
        # Lanczos gains that stray from eigvalsh's send the dump to a full
        # decomposition
        requested = []
        decompose = spopo.supermodes.schmidt_decompose
        values = spopo.supermodes.takagi_values

        def spy(*args, n_modes=None, **kwargs):
            requested.append(n_modes)
            return decompose(*args, n_modes=n_modes, **kwargs)

        def shifted(kernel):
            gains = values(kernel)
            gains[1] *= 1.0 + 1e-9
            return gains

        path = write_config(tmp_path, scenario_dict(**{"run.n_modes_dump": 2}))
        monkeypatch.setattr(spopo.supermodes, "schmidt_decompose", spy)
        assert main(["supermodes", "--config", str(path), "--out",
                     str(tmp_path / "a")]) == 0
        assert requested == [2]
        monkeypatch.setattr(spopo.supermodes, "takagi_values", shifted)
        assert main(["supermodes", "--config", str(path), "--out",
                     str(tmp_path / "b")]) == 0
        assert requested == [2, 2, None]
        # mode 1 has a negative eigenvalue: phase i, all-zero real part
        lanczos = load_table(tmp_path / "a" / "mode_001.csv")
        full = load_table(tmp_path / "b" / "mode_001.csv")
        assert np.abs(lanczos["re_psi"] - full["re_psi"]).max() == 0.0
        assert np.abs(lanczos["im_psi"] - full["im_psi"]).max() \
            <= 1e-12 * np.abs(full["im_psi"]).max()

    @pytest.mark.parametrize("command", ["supermodes", "squeezing", "pulses",
                                         "metrology"])
    def test_gain_cutoff_above_one_is_config_error(self, tmp_path, capsys,
                                                   command):
        # a cutoff above 1 would keep no mode, not even mode 0
        path = write_config(tmp_path, scenario_dict(**{"run.gain_cutoff": 2}))
        out = tmp_path / "o"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "run.gain_cutoff" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["supermodes", "squeezing", "pulses",
                                         "metrology"])
    @pytest.mark.parametrize("field, index, value", [
        ("run.theta_max", None, float("nan")),
        ("run.n_bar0", None, float("nan")),
        ("run.n_bar0", None, float("inf")),
        ("run.ratios", 0, float("nan")),
        ("pump.tau_p", None, float("nan")),
        ("pump.delta0", None, float("nan")),
        ("crystal.l_c", None, float("inf")),
        ("crystal.omega0", None, float("nan")),
        ("crystal.signal_dispersion", 2, float("nan")),
        ("crystal.pump_dispersion", 1, float("-inf")),
        ("cavity.delta_rt", None, float("nan")),
        ("grid.n_points", None, float("nan")),
        pytest.param("crystal.l_c", None, 10**400,
                      id="crystal.l_c-None-10**400"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               command, field, index, value):
        # json reads NaN and Infinity, and an integer beyond the float
        # range; each is refused before any output
        raw = scenario_dict()
        section, _, key = field.partition(".")
        if index is None:
            raw[section][key] = value
        else:
            raw[section][key][index] = value
        out = tmp_path / "o"
        code = main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert field in err["message"]
        assert not out.exists()

    def test_write_csv_array_path_matches_row_path(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(
            -300, 300, size=(5000, 3))
        rows[:3] = [[np.nan, np.inf, -np.inf], [-0.0, 0.0, 1e-300],
                    [1e300, -1e-300, 5e-324]]
        rows[4096] = [np.nan, -0.0, 1e300]
        header = ["a", "b", "c"]
        meta = {"seed": 1}
        fast = _write_csv(tmp_path / "array.csv", header, [list(rows.T)],
                          meta)
        # reference: one % per row of numpy floats, as a row loop writes it
        reference = "# seed = 1\na,b,c\n" + "".join(
            "%.12g,%.12g,%.12g\n" % tuple(row) for row in rows)
        assert fast.read_text() == reference
        body = fast.read_text().splitlines()
        assert body[2:4] == ["nan,inf,-inf", "-0,0,1e-300"]
        assert len(body) == 2 + 5000

    def test_write_csv_blocks_match_row_path(self, tmp_path):
        # number columns, integer arrays up to 10**12 - 1, a one-row block
        # and a block across the _CHUNK_ROWS boundary, in one file
        rng = np.random.default_rng(13)
        long = rng.standard_normal(5000)
        blocks = [
            [np.array([0, -7, 999_999_999_999]), np.nan,
             np.array([1.5, -0.0, 5e-324]), -0.0],
            [np.array([3]), np.inf, np.array([2.0]), 5e-324],
            [np.arange(5000), -np.inf, long, 0.1],
        ]
        path = _write_csv(tmp_path / "blocks.csv", ["i", "a", "x", "b"],
                          blocks, {})
        reference = "i,a,x,b\n"
        for block in blocks:
            columns = np.broadcast_arrays(*map(np.asarray, block))
            reference += "".join("%.12g,%.12g,%.12g,%.12g\n" % tuple(
                map(float, row)) for row in zip(*columns))
        assert path.read_text() == reference
        lines = reference.splitlines()
        assert lines[1:5] == ["0,nan,1.5,-0", "-7,nan,-0,-0",
                              "999999999999,nan,4.94065645841e-324,-0",
                              "3,inf,2,4.94065645841e-324"]
        assert len(lines) == 1 + 3 + 1 + 5000

    def test_csv_fields_print_as_float_format(self, tmp_path):
        # every field of every CSV the four subcommands write, integer
        # columns too, is the %.12g text of its value
        raw = scenario_dict(**{"run.dump_kernel": True,
                               "run.dump_matrices": True,
                               "run.n_modes_dump": 2})
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 2e-10
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        for command in ("supermodes", "squeezing", "pulses", "metrology"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["duan.csv", "gains.csv", "kernel.csv", "metrology.csv",
                         "mode_000.csv", "mode_001.csv", "probe.csv",
                         "sigma2.csv", "squeezing.csv", "v_minus.csv",
                         "v_plus.csv"]
        for name in names:
            body = [ln for ln in (out / name).read_text().splitlines()
                    if not ln.startswith("#")][1:]
            assert body, name
            for line in body:
                for field in line.split(","):
                    assert field == "%.12g" % float(field), (name, line)

    @pytest.mark.skipif(not REFUSES_HUGE_ALLOCATIONS,
                        reason="the kernel may grant any allocation, whose "
                               "pages would then be written")
    @pytest.mark.parametrize("command, overrides", [
        ("pulses", {"run.N_max": 10**12}),
        ("squeezing", {"run.theta_points": 10**12}),
        # a 2 ns comb keeps the million-point grid's omega_max (1.57e15
        # rad/s) below the carrier, which a config must
        ("squeezing", {"grid.n_points": 1_000_001, "pump.T0": 2e-9}),
    ], ids=["N_max", "theta_points", "n_points"])
    def test_unallocatable_size_is_config_error(self, tmp_path, capsys,
                                                command, overrides):
        # each asks numpy for one 7.28 TiB array, which a kernel that does
        # not overcommit refuses at once, before any page is touched
        path = write_config(tmp_path, scenario_dict(**overrides))
        code = main([command, "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "7.28 TiB" in err["message"]

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        # refused when the run's outputs are stored, after the compute
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "--out" in err["message"]
        assert out.read_text() == "kept"

    def test_refusal_after_a_queued_output_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # the runner queues an output and a record, then refuses: neither
        # is written, and --out is not made
        def refuse_late(run):
            run.write("summary.json", "{}\n")
            assert run.values.size == run.cfg.grid.n_points
            raise ValidationError("refused after the compute")

        monkeypatch.setitem(spopo.cli._RUNNERS, "squeezing", refuse_late)
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "out"
        assert main(["squeezing", "--config", str(path), "--out",
                     str(out)]) == 3
        captured = capsys.readouterr()
        assert [json.loads(line)["error"] for line in
                captured.err.splitlines()] == ["validation-error"]
        assert captured.out == ""
        assert not out.exists()

    def test_zero_n_bar0_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_dict(**{"run.n_bar0": 0}))
        code = main(["metrology", "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "run.n_bar0" in err["message"]

    def test_threshold_config_exit_code(self, tmp_path, capsys):
        # delta at pi/2, or no feedback at r = 0, has no finite threshold:
        # physics-domain error (3)
        for edit in ({"cavity.delta_rt": np.pi / 2}, {"cavity.r": 0.0}):
            path = write_config(tmp_path, scenario_dict(**edit))
            code = main(["pulses", "--config", str(path), "--out",
                         str(tmp_path / "o")])
            assert code == 3
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "no-finite-threshold"

    @pytest.mark.parametrize("phase, sign", [(0.0, 1.0), (np.pi, -1.0)],
                             ids=["even", "odd"])
    def test_duan_sums_on_both_branches(self, tmp_path, phase, sign):
        # delta_rt = pi resonates on the odd branch: sign-alternating V^(-);
        # each row prints the closed form at g0 and the signed amplitude
        path = write_config(tmp_path, scenario_dict(**{"cavity.delta_rt": phase}))
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 0
        cavity = CavityConfig(r=0.8894, phase=phase)
        gain = 0.8 * threshold_gain(cavity).gain
        rows = [line for line in (out / "duan.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows == ["separation,duan_sum"] + [
            f"{s},{'%.12g' % duan_sum(gain, sign * cavity.r, s)}"
            for s in range(1, 12)]
        # the r column is the configured amplitude, not the signed one
        np.testing.assert_array_equal(load_table(out / "sigma2.csv")["r"], 0.8894)

    @staticmethod
    def _run_branch(tmp_path, name, command, **overrides):
        """Run one subcommand on scenario_dict(**overrides) in its own dir."""
        base = tmp_path / name
        base.mkdir()
        path = write_config(base, scenario_dict(**overrides))
        out = base / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        return out

    def test_odd_branch_metrology(self, tmp_path):
        # -r flips every other pulse of the probe; the central-pulse gauge
        # (pulse 1 of 3) then flips all of them, so pulse k reads -(-1)^k
        even = self._run_branch(tmp_path, "even", "metrology")
        odd = self._run_branch(tmp_path, "odd", "metrology",
                               **{"cavity.delta_rt": np.pi})
        p_even, p_odd = (load_table(d / "probe.csv") for d in (even, odd))
        n_pulses = scenario_dict()["run"]["probe_pulses"]
        k = np.repeat(np.arange(n_pulses), p_even["t"].size // n_pulses)
        sign = -(-1.0) ** k
        np.testing.assert_array_equal(p_odd["t"], p_even["t"])
        for column in ("re", "im"):
            np.testing.assert_array_equal(p_odd[column], sign * p_even[column])
        body = [[ln for ln in (d / "metrology.csv").read_text().splitlines()
                 if not ln.startswith("#")] for d in (even, odd)]
        assert body[0] == body[1]
        summaries = [json.loads((d / "summary.json").read_text())
                     for d in (even, odd)]
        for summary in summaries:
            del summary["config_hash"]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("command", ["pulses", "metrology"])
    def test_pump_ceo_pi_matches_cavity_pi(self, tmp_path, command):
        # the cavity reads the total round-trip phase delta_rt + delta0
        outs = [self._run_branch(tmp_path, "cavity", command,
                                 **{"cavity.delta_rt": np.pi}),
                self._run_branch(tmp_path, "pump", command,
                                 **{"pump.delta0": np.pi})]
        # the outputs; the run-directory records are keyed on the kernel's
        # inputs, which hold no phase (TestRecordKey)
        names = sorted(p.name for p in outs[0].iterdir() if p.name[0] != ".")
        assert names == sorted(p.name for p in outs[1].iterdir()
                               if p.name[0] != ".")
        for name in names:
            texts = [[ln for ln in (d / name).read_text().splitlines()
                      if "config_hash" not in ln] for d in outs]
            assert texts[0] == texts[1], name

    def test_metrology_zero_energy_writes_nothing(self, tmp_path, capsys):
        # a zero pump keeps no mode, so there is no probe: refused, and
        # neither metrology.csv nor summary.json is written
        raw = scenario_dict()
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 0
        out = tmp_path / "out"
        code = main(["metrology", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pulses", "metrology"])
    def test_off_resonant_phase_refused(self, tmp_path, capsys, command):
        # below the phase-dependent threshold, but the pulse closed forms
        # need a resonant round trip
        path = write_config(tmp_path, scenario_dict(**{"pump.delta0": 0.3}))
        code = main([command, "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert "resonant" in err["message"]

    @pytest.mark.parametrize("command", ["pulses", "metrology"])
    def test_kernel_near_float_range_is_at_threshold(self, tmp_path, capsys,
                                                     command):
        # g0 = 8.7e239: the Lanczos norms overflow and eigh decides the
        # gains; the refusal is one error object, with no numpy warning
        raw = json.loads(DEFAULT_CONFIG.read_text())
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 2e-10
        raw["crystal"]["d_eff"] = 1.9e229
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config",
                         str(write_config(tmp_path, raw)), "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "at-threshold"
        assert not out.exists()

    def test_non_finite_kernel_stderr_is_one_json_object(self, tmp_path):
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["crystal"]["pump_dispersion"][2] = 1e300
        proc = subprocess.run(
            [sys.executable, "-m", "spopo.cli", "supermodes", "--config",
             str(write_config(tmp_path, raw)), "--out", str(tmp_path / "o")],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "validation-error"

    def test_default_n_max(self, tmp_path):
        # pulses and metrology share the default N_max of 100
        raw = scenario_dict()
        del raw["run"]["N_max"]
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        for command in ("pulses", "metrology"):
            assert main([command, "--config", str(path),
                         "--out", str(out)]) == 0
        np.testing.assert_array_equal(load_table(out / "sigma2.csv")["N"],
                                      np.arange(1, 101))
        table = load_table(out / "metrology.csv")
        for ratio in raw["run"]["ratios"]:
            np.testing.assert_array_equal(
                table["N"][table["ratio"] == ratio], np.arange(1, 101))

    def test_module_entry_point(self, tmp_path):
        # the python -m spopo.cli process matches the in-process run; the
        # supermodes and metrology processes never synthesize the modes in
        # time
        raw = scenario_dict(**{"run.n_modes_dump": 2})
        path = write_config(tmp_path, raw)
        names = {"pulses": ("sigma2.csv", "duan.csv"),
                 "supermodes": ("gains.csv", "mode_000.csv", "mode_001.csv"),
                 "metrology": ("metrology.csv", "summary.json", "probe.csv")}
        for command, files in names.items():
            proc = subprocess.run(
                [sys.executable, "-m", "spopo.cli", command, "--config",
                 str(path), "--out", str(tmp_path / "a")], env=src_env(),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / "b")]) == 0
            for name in files:
                assert (tmp_path / "a" / name).read_bytes() \
                    == (tmp_path / "b" / name).read_bytes()

    def test_cli_import_loads_no_scipy(self):
        # neither the CLI nor a full Takagi factorisation needs scipy, and
        # the Lanczos start vector needs no numpy.random
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, numpy as np, spopo.cli; "
             "a = np.arange(16.0).reshape(4, 4); "
             "spopo.takagi(a + a.T); "
             "spopo.takagi(np.diag(0.5 ** np.arange(100.0)), 1); print(sorted("
             "m for m in sys.modules if m.partition('.')[0] == 'scipy' "
             "or m.startswith('numpy.random')))"],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_rerun_is_bitwise_identical(self, tmp_path):
        # the third run goes into the first one's directory, where
        # supermodes and squeezing read the spectrum the first one stored
        path = write_config(tmp_path, scenario_dict())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        names = {"metrology": ("metrology.csv", "summary.json", "probe.csv"),
                 "pulses": ("sigma2.csv", "duan.csv"),
                 "squeezing": ("squeezing.csv",),
                 "supermodes": ("gains.csv", "mode_000.csv")}
        for command, files in names.items():
            runs = []
            for out in (out_a, out_b, out_a):
                assert main([command, "--config", str(path),
                             "--out", str(out / command)]) == 0
                runs.append([(out / command / name).read_bytes()
                             for name in files])
            assert runs[0] == runs[1] == runs[2]

    def test_default_config_golden_values(self, tmp_path):
        # shipped scenario: finesse ~ 30 cavity, ratios {0.5, 0.8, 0.95};
        # values frozen from the oracle-validated closed forms
        out = tmp_path / "out"
        assert main(["metrology", "--config", str(DEFAULT_CONFIG),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["threshold_gain"] == pytest.approx(
            0.11720820090554103, rel=1e-12)
        np.testing.assert_allclose(
            summary["asymptote"],
            [3.003435423650927, 9.016494224958242, 39.084886006899744],
            rtol=1e-12)
        assert summary["min_pulses_to_asymptote"] == [343, 926, 3753]
        table = load_table(out / "metrology.csv")
        pick = (table["ratio"] == 0.8) & (table["N"] == 100)
        assert table["improvement"][pick][0] == pytest.approx(
            5.756075611931996, rel=1e-12)
        # cross-file consistency: the squeezing spectrum at theta = 0 (pump
        # ratio 0.8) is the infinite-pulse metrology asymptote 1/(2 imp^2)
        assert main(["squeezing", "--config", str(DEFAULT_CONFIG),
                     "--out", str(out)]) == 0
        squeezing = load_table(out / "squeezing.csv")
        center = (squeezing["mode"] == 0) & (squeezing["theta"] == 0.0)
        var_p0 = squeezing["var_p"][center][0]
        assert var_p0 == pytest.approx(1.0 / (2 * summary["asymptote"][1] ** 2),
                                       rel=1e-9)

    def test_console_entry_point(self, tmp_path):
        import shutil
        exe = shutil.which("spopo")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "supermodes" in proc.stdout and "metrology" in proc.stdout
        # the installed script runs a subcommand through its own entry
        out = tmp_path / "out"
        proc = subprocess.run([exe, "pulses", "--config", str(DEFAULT_CONFIG),
                               "--out", str(out)], capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sorted(proc.stdout.splitlines()) \
            == [str(out / "duan.csv"), str(out / "sigma2.csv")]

    def test_seed_is_a_usage_error(self, tmp_path, capsys):
        # the model is deterministic: there is no --seed to record
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as usage:
            main(["pulses", "--config", str(path), "--out", str(out),
                  "--seed", "1"])
        assert usage.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_one_parser(self, capsys):
        # the command is a positional of one parser, and --help still
        # gives each command's one-line description
        parser = spopo.cli.build_parser()
        assert vars(parser.parse_args(["pulses", "--config", "c", "--out",
                                       "o"])) \
            == {"command": "pulses", "config": "c", "out": "o"}
        with pytest.raises(SystemExit) as shown:
            parser.parse_args(["--help"])
        assert shown.value.code == 0
        text = capsys.readouterr().out
        lines = [line.split(None, 1) for line in text.splitlines()]
        for name, runner in spopo.cli._RUNNERS.items():
            assert [name, runner.__doc__] in lines


def default_twin(name):
    """configs/default.json, or one of its twins: "odd" has a round-trip
    phase of pi, "near" pumps at 0.9999 of threshold, "energy" sets a pulse
    energy and both dumps."""
    raw = json.loads(DEFAULT_CONFIG.read_text())
    if name == "odd":
        raw["cavity"]["delta_rt"] = np.pi
    elif name == "near":
        raw["pump"]["pump_ratio"] = 0.9999
    elif name == "energy":
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 2e-10
        raw["run"].update(dump_kernel=True, dump_matrices=True)
    return raw


class TestRunSpectrum:
    """supermodes and squeezing share one gain spectrum per run directory."""

    @staticmethod
    def _run(path, out, *commands):
        for command in commands:
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        return out

    @staticmethod
    def _outputs(out):
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name not in (SPECTRUM_FILE, BASIS_FILE)}

    @pytest.mark.parametrize("twin", ["default", "odd", "energy"])
    def test_shared_directory_matches_own_directories(self, tmp_path, twin):
        path = write_config(tmp_path, default_twin(twin))
        alone = [self._run(path, tmp_path / command, command)
                 for command in ("supermodes", "squeezing")]
        expected = self._outputs(alone[0]) | self._outputs(alone[1])
        for order in (("supermodes", "squeezing"), ("squeezing", "supermodes")):
            shared = self._run(path, tmp_path / "-".join(order), *order)
            assert self._outputs(shared) == expected, order
        # either subcommand stores the same bits
        spectra = {(out / SPECTRUM_FILE).read_bytes() for out in alone}
        assert len(spectra) == 1
        key, _, body = spectra.pop().partition(b"\n")
        assert len(key) == 64
        cfg = load_scenario(path)
        assert body == takagi_values(build_kernel(
            cfg.grid.n_points, cfg.pump,
            cfg.crystal)).astype("<f8").tobytes()

    def test_read_spectrum_is_not_solved_again(self, tmp_path, monkeypatch,
                                               capsys):
        path = write_config(tmp_path, scenario_dict(**{
            "grid.n_points": 341, "run.n_modes_dump": 2}))
        cold = self._outputs(self._run(path, tmp_path / "cold", "supermodes",
                                       "squeezing"))
        out = self._run(path, tmp_path / "out", "squeezing")
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("the stored spectrum was solved again")

        # squeezing neither builds the kernel nor solves it
        with monkeypatch.context() as patch:
            patch.setattr(spopo.cli, "build_kernel", refuse)
            patch.setattr(np.linalg, "eigvalsh", refuse)
            self._run(path, out, "squeezing")
        # supermodes builds it for its Lanczos basis, and solves no more
        forbid_full_eigensolves(monkeypatch, 341)
        self._run(path, out, "supermodes")
        assert self._outputs(out) == cold
        # stdout lists the outputs, not the spectrum
        listed = capsys.readouterr().out.splitlines()
        assert sorted(listed) == sorted(str(out / name) for name in cold)

    @pytest.mark.parametrize("spoil", [
        "other-config", "edited-key", "truncated", "directory"])
    def test_unusable_spectrum_is_recomputed(self, tmp_path, capsys, spoil):
        path = write_config(tmp_path, scenario_dict())
        reference = self._run(path, tmp_path / "reference", "squeezing")
        stored = (reference / SPECTRUM_FILE).read_bytes()
        out = tmp_path / "out"
        spectrum = out / SPECTRUM_FILE
        if spoil == "other-config":
            other = tmp_path / "other"
            other.mkdir()
            self._run(write_config(other, scenario_dict(**{"crystal.l_c": 1e-3})),
                      out, "squeezing")
            assert spectrum.read_bytes() != stored
        elif spoil == "directory":
            spectrum.mkdir(parents=True)
        else:
            out.mkdir()
            spectrum.write_bytes(stored[:-8] if spoil == "truncated"
                                 else b"0" * 64 + stored[64:])
        capsys.readouterr()
        for command in ("squeezing", "supermodes"):
            self._run(path, out, command)
            assert self._outputs(out)["squeezing.csv"] \
                == (reference / "squeezing.csv").read_bytes()
        if spoil == "directory":
            # the store failed: no spectrum, and no temporary left behind;
            # supermodes stored its basis
            assert spectrum.is_dir()
            assert sorted(p.name for p in out.iterdir() if p.name[0] == ".") \
                == [BASIS_FILE, SPECTRUM_FILE]
        else:
            assert spectrum.read_bytes() == stored
        captured = capsys.readouterr()
        assert captured.err == ""
        assert SPECTRUM_FILE not in captured.out

    @pytest.mark.parametrize("command", ["supermodes", "squeezing"])
    @pytest.mark.parametrize("overrides, error", [
        ({"pump": {"energy": 1e-6, "tau_p": TAU_P, "T0": T0}}, "at-threshold"),
        ({"grid": {"n_points": 41}}, "spectral-leakage")],
        ids=["at-threshold", "spectral-leakage"])
    def test_refused_run_leaves_directory_empty(self, tmp_path, capsys,
                                                command, overrides, error):
        out = tmp_path / "out"
        out.mkdir()
        path = write_config(tmp_path, scenario_dict(**overrides))
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert list(out.iterdir()) == []

    def test_leakage_hint_names_config_key(self, tmp_path, capsys):
        # the window is n_points comb spacings wide, so the hint names the
        # key that widens it
        path = write_config(tmp_path,
                            scenario_dict(**{"grid": {"n_points": 41}}))
        assert main(["supermodes", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        message = json.loads(capsys.readouterr().err)["message"]
        assert "grid.n_points" in message
        assert "omega_max" not in message


class TestRunBasis:
    """supermodes, metrology and energy-pumped pulses share one Lanczos
    basis per run directory."""

    _run = staticmethod(TestRunSpectrum._run)
    _outputs = staticmethod(TestRunSpectrum._outputs)

    @staticmethod
    def _spy_builds(monkeypatch):
        """The arguments of every ``cli.build_kernel`` call from now on."""
        build = spopo.cli.build_kernel
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(spopo.cli, "build_kernel", spy)
        return built

    @pytest.mark.parametrize("twin", ["default", "odd", "energy"])
    def test_read_basis_builds_no_kernel(self, tmp_path, monkeypatch, capsys,
                                         twin):
        raw = default_twin(twin)
        path = write_config(tmp_path, raw)
        built = self._spy_builds(monkeypatch)
        cold = {}
        # a cold subcommand builds the kernel once, dump_kernel included; a
        # pump_ratio pulses builds none
        for command, builds in (("supermodes", 1),
                                ("pulses", int(twin == "energy")),
                                ("metrology", 1)):
            built.clear()
            cold |= self._outputs(self._run(path, tmp_path / command, command))
            assert len(built) == builds, command
        out = self._run(path, tmp_path / "out", "supermodes")
        capsys.readouterr()
        built.clear()
        self._run(path, out, "metrology", "pulses")
        assert not built
        # with both records present, supermodes builds the kernel only to
        # dump it
        self._run(path, out, "supermodes")
        assert len(built) == bool(raw["run"].get("dump_kernel"))
        assert self._outputs(out) == cold
        # stdout lists the outputs, not the records
        listed = capsys.readouterr().out.splitlines()
        assert all(Path(line).name[0] != "." for line in listed)

    def test_run_knob_edits_reuse_the_records(self, tmp_path, monkeypatch,
                                              capsys):
        # the records depend on the grid, the pump envelope and the crystal:
        # edits of run knobs, of the pump ratio and of the pump's CEO phase
        # read them and rewrite neither
        out = self._run(write_config(tmp_path, default_twin("default")),
                        tmp_path / "out", "supermodes", "squeezing",
                        "metrology")
        records = {name: (out / name).read_bytes()
                   for name in (SPECTRUM_FILE, BASIS_FILE)}
        stamps = {name: ((out / name).stat().st_ino,
                         (out / name).stat().st_mtime_ns)
                  for name in records}
        raw = default_twin("default")
        raw["run"].update(N_max=50, ratios=[0.3, 0.6])
        raw["pump"].update(pump_ratio=0.7, delta0=np.pi)
        (tmp_path / "edited").mkdir()
        path = write_config(tmp_path / "edited", raw)
        cold = {}
        for command in ("squeezing", "metrology"):
            cold |= self._outputs(self._run(path, tmp_path / command, command))
        capsys.readouterr()
        built = self._spy_builds(monkeypatch)
        self._run(path, out, "squeezing", "metrology")
        assert not built
        outputs = self._outputs(out)
        assert {name: outputs[name] for name in cold} == cold
        assert {name: (out / name).read_bytes() for name in records} \
            == records
        assert {name: ((out / name).stat().st_ino,
                       (out / name).stat().st_mtime_ns)
                for name in records} == stamps
        assert capsys.readouterr().err == ""

    # any warning fails the test, so each run leaves stderr empty
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("twin", ["default", "odd", "near", "energy"])
    def test_both_orders_match_own_directories(self, tmp_path, capsys, twin):
        path = write_config(tmp_path, default_twin(twin))
        commands = ("supermodes", "squeezing", "pulses", "metrology")
        alone = [self._run(path, tmp_path / command, command)
                 for command in commands]
        # probe.csv carries the probe's second moment <(omega0 + w)^2>
        meta = dict(line[2:].split(" = ") for line in
                    (alone[-1] / "probe.csv").read_text().splitlines()
                    if line.startswith("# "))
        assert 0.0 < float(meta["omega_eff_sq"]) < math.inf
        expected = {}
        for out in alone:
            expected |= self._outputs(out)
        bases = {(out / BASIS_FILE).read_bytes() for out in alone
                 if (out / BASIS_FILE).exists()}
        for order in (commands, commands[::-1]):
            shared = self._run(path, tmp_path / "-".join(order), *order)
            assert self._outputs(shared) == expected, order
            bases.add((shared / BASIS_FILE).read_bytes())
        assert capsys.readouterr().err == ""
        # whoever computes the basis stores the same bits: the key line, then
        # the unscaled gains and modes of the k = n_modes_dump basis
        assert len(bases) == 1
        key, _, body = bases.pop().partition(b"\n")
        cfg = load_scenario(path)
        basis = schmidt_decompose(
            build_kernel(cfg.grid.n_points, cfg.pump, cfg.crystal),
            cfg.run["gain_cutoff"], n_modes=cfg.run["n_modes_dump"])
        assert key == spopo.cli._spectrum_key(cfg)
        assert body == (basis.gains.astype("<f8").tobytes()
                        + basis.modes_freq.astype("<c16").tobytes())

    @pytest.mark.parametrize("spoil", [
        "other-config", "edited-key", "truncated", "other-n-modes-dump",
        "directory"])
    def test_unusable_basis_is_recomputed(self, tmp_path, capsys, spoil):
        path = write_config(tmp_path, scenario_dict())
        reference = self._run(path, tmp_path / "reference", "metrology")
        stored = (reference / BASIS_FILE).read_bytes()
        out = tmp_path / "out"
        record = out / BASIS_FILE
        if spoil in ("other-config", "other-n-modes-dump"):
            other = tmp_path / "other"
            other.mkdir()
            overrides = ({"crystal.l_c": 1e-3} if spoil == "other-config"
                         else {"run.n_modes_dump": 2})
            self._run(write_config(other, scenario_dict(**overrides)), out,
                      "metrology")
            assert record.read_bytes() != stored
        elif spoil == "directory":
            record.mkdir(parents=True)
        else:
            out.mkdir()
            record.write_bytes(stored[:-16] if spoil == "truncated"
                               else b"0" * 64 + stored[64:])
        capsys.readouterr()
        self._run(path, out, "metrology")
        assert self._outputs(out) == self._outputs(reference)
        if spoil == "directory":
            # the store failed: no basis, and no temporary left behind
            assert record.is_dir()
            assert [p.name for p in out.iterdir() if p.name[0] == "."] \
                == [BASIS_FILE]
        else:
            assert record.read_bytes() == stored
        captured = capsys.readouterr()
        assert captured.err == ""
        assert BASIS_FILE not in captured.out

    def test_fallback_dump_stores_the_lanczos_basis(self, tmp_path,
                                                    monkeypatch):
        # the full decomposition serves supermodes' own dump; the record, and
        # so a later metrology, keep the Lanczos basis
        path = write_config(tmp_path, scenario_dict(**{"run.n_modes_dump": 2}))
        cold = self._run(path, tmp_path / "cold", "metrology")
        values = spopo.supermodes.takagi_values

        def shifted(kernel):
            gains = values(kernel)
            gains[1] *= 1.0 + 1e-9
            return gains

        monkeypatch.setattr(spopo.supermodes, "takagi_values", shifted)
        out = self._run(path, tmp_path / "out", "supermodes")
        monkeypatch.undo()
        assert (out / BASIS_FILE).read_bytes() \
            == (cold / BASIS_FILE).read_bytes()
        self._run(path, out, "metrology")
        for name in ("metrology.csv", "summary.json", "probe.csv"):
            assert (out / name).read_bytes() == (cold / name).read_bytes()

    @pytest.mark.parametrize("command", ["metrology", "pulses"])
    def test_at_threshold_run_leaves_directory_empty(self, tmp_path, capsys,
                                                     command):
        # a refusal after the basis is solved stores no record; supermodes
        # is TestRunSpectrum's case, and a zero-energy metrology TestCliRuns'
        raw = scenario_dict()
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 1e-6
        out = tmp_path / "out"
        out.mkdir()
        path = write_config(tmp_path, raw)
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "at-threshold"
        assert list(out.iterdir()) == []

    def test_pulses_and_metrology_store_the_basis_alone(self, tmp_path):
        # on an energy pump both read g0 from the basis; neither needs every
        # gain
        raw = scenario_dict()
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 2e-10
        path = write_config(tmp_path, raw)
        first = self._run(path, tmp_path / "pulses", "pulses")
        out = self._run(path, tmp_path / "out", "metrology", "pulses")
        assert sorted(p.name for p in out.iterdir() if p.name[0] == ".") \
            == [BASIS_FILE]
        assert (out / BASIS_FILE).read_bytes() \
            == (first / BASIS_FILE).read_bytes()
        assert (out / "sigma2.csv").read_bytes() \
            == (first / "sigma2.csv").read_bytes()
        # a pump_ratio config's pulses needs no basis, and stores none
        ratio = self._run(write_config(tmp_path, scenario_dict()),
                          tmp_path / "ratio", "pulses")
        assert all(p.name[0] != "." for p in ratio.iterdir())


#: the variables that set OpenBLAS's thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


class TestRecordKey:
    """The record key holds the BLAS threading that OpenBLAS is told, and no
    round-trip phase."""

    def test_blas_thread_settings_change_the_key(self, monkeypatch):
        cfg = load_scenario(DEFAULT_CONFIG)
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        keys = [spopo.cli._spectrum_key(cfg)]
        for name in BLAS_THREAD_VARIABLES:
            # unset, empty, "1" and "2" are four different keys
            for value in ("", "1", "2"):
                monkeypatch.setenv(name, value)
                keys.append(spopo.cli._spectrum_key(cfg))
            monkeypatch.delenv(name)
        # one CPU more is another key
        if hasattr(os, "sched_getaffinity"):
            cpus = os.sched_getaffinity(0)
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: cpus | {max(cpus) + 1})
        else:
            count = os.cpu_count()
            monkeypatch.setattr(os, "cpu_count", lambda: count + 1)
        keys.append(spopo.cli._spectrum_key(cfg))
        assert len(set(keys)) == len(keys)

    def test_round_trip_phase_is_not_in_the_key(self, tmp_path, monkeypatch):
        # delta_rt and delta0 reach the cavity alone: configs that differ
        # only in their phases build one kernel and share its records
        twins = [json.loads(DEFAULT_CONFIG.read_text()) for _ in range(3)]
        twins[1]["cavity"]["delta_rt"] = np.pi
        twins[2]["pump"]["delta0"] = np.pi
        assert len({spopo.cli._spectrum_key(parse_scenario(raw))
                    for raw in twins}) == 1
        out = tmp_path / "out"
        assert main(["supermodes", "--config",
                     str(write_config(tmp_path, twins[0])),
                     "--out", str(out)]) == 0

        def solve(kernel):
            raise AssertionError("the stored spectrum was solved again")

        monkeypatch.setattr(spopo.supermodes, "takagi_values", solve)
        assert main(["squeezing", "--config",
                     str(write_config(tmp_path, twins[2])),
                     "--out", str(out)]) == 0

    def test_other_thread_count_writes_its_own_bytes(self, tmp_path):
        # at 341 points the squeezing.csv of one and two OpenBLAS threads
        # differ in their last digits: a squeezing under two threads after
        # a supermodes under one must not read the one-thread spectrum
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["grid"]["n_points"] = 341
        path = write_config(tmp_path, raw)

        def run(command, out, threads):
            env = src_env()
            for name in BLAS_THREAD_VARIABLES:
                env.pop(name, None)
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "spopo.cli", command, "--config",
                 str(path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, "")

        run("supermodes", tmp_path / "mixed", "1")
        run("squeezing", tmp_path / "mixed", "2")
        run("squeezing", tmp_path / "cold", "2")
        assert (tmp_path / "mixed" / "squeezing.csv").read_bytes() \
            == (tmp_path / "cold" / "squeezing.csv").read_bytes()

    def test_cold_runs_agree_across_thread_counts(self, tmp_path):
        # cold runs under one and two OpenBLAS threads at 341 points: gains
        # differ from index 63 of 66 kept, by at most 1.3e-17 of g0, and
        # squeezing.csv by at most 2.0e-12 of a column's maximum
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["grid"]["n_points"] = 341
        path = write_config(tmp_path, raw)
        env = src_env()
        for name in BLAS_THREAD_VARIABLES:
            env.pop(name, None)
        for threads in ("1", "2"):
            for command in ("supermodes", "squeezing", "metrology"):
                proc = subprocess.run(
                    [sys.executable, "-m", "spopo.cli", command, "--config",
                     str(path), "--out", str(tmp_path / threads / command)],
                    env=dict(env, OPENBLAS_NUM_THREADS=threads),
                    capture_output=True, text=True, timeout=120)
                assert (proc.returncode, proc.stderr) == (0, "")
        one, two = tmp_path / "1", tmp_path / "2"

        def close(name, atol):
            a, b = load_table(one / name), load_table(two / name)
            for column in a:
                np.testing.assert_allclose(
                    b[column], a[column], rtol=0,
                    atol=atol * np.nanmax(np.abs(a[column])), err_msg=column)

        n_kept = [next(line for line in (d / "supermodes" / "gains.csv")
                       .read_text().splitlines() if "n_kept" in line)
                  for d in (one, two)]
        assert n_kept[0] == n_kept[1]
        gains = [load_table(d / "supermodes" / "gains.csv")["gain"]
                 for d in (one, two)]
        np.testing.assert_allclose(gains[1], gains[0], rtol=0,
                                   atol=1e-15 * gains[0][0])
        close(Path("squeezing") / "squeezing.csv", 1e-10)
        modes = sorted((one / "supermodes").glob("mode_*.csv"))
        assert modes
        for name in modes:
            close(Path("supermodes") / name.name, 1e-10)
        close(Path("metrology") / "probe.csv", 1e-10)
        assert (one / "metrology" / "metrology.csv").read_bytes() \
            == (two / "metrology" / "metrology.csv").read_bytes()


class TestOperatingPoint:
    """One threshold and one g0 per run, whichever subcommand reads them."""

    def test_metrology_and_pulses_take_one_g0(self, tmp_path, monkeypatch):
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["pump"]["pump_ratio"] = 0.44
        path = write_config(tmp_path, raw)
        seen = {}
        curve = spopo.pulses.min_variance_curve

        def probe_spy(*args, **kwargs):
            seen["metrology"] = kwargs["gain0"]
            return optimal_probe(*args, **kwargs)

        def curve_spy(g0, *args):
            seen["pulses"] = g0
            return curve(g0, *args)

        monkeypatch.setattr(spopo.metrology, "optimal_probe", probe_spy)
        monkeypatch.setattr(spopo.pulses, "min_variance_curve", curve_spy)
        for command in ("metrology", "pulses"):
            assert main([command, "--config", str(path), "--out",
                         str(tmp_path / command)]) == 0
        cfg = load_scenario(path)
        g0 = 0.44 * threshold_gain(cfg.cavity).gain
        assert seen["metrology"].hex() == seen["pulses"].hex() == g0.hex()

    def test_energy_pump_ratio_defaults_to_g0_over_threshold(self, tmp_path):
        raw = json.loads(DEFAULT_CONFIG.read_text())
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 2e-10
        del raw["run"]["ratios"]
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["metrology", "--config", str(path), "--out",
                     str(out)]) == 0
        cfg = load_scenario(path)
        basis = schmidt_decompose(
            build_kernel(cfg.grid.n_points, cfg.pump, cfg.crystal),
            cfg.run["gain_cutoff"], n_modes=cfg.run["n_modes_dump"])
        g_th = threshold_gain(cfg.cavity).gain
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ratios"] == [float(basis.gains[0]) / g_th]
        assert summary["threshold_gain"] == g_th
        assert set(load_table(out / "metrology.csv")["ratio"]) \
            == {float("%.12g" % (basis.gains[0] / g_th))}

    def test_squeezing_just_below_threshold_is_refused(self, tmp_path,
                                                       capsys):
        # 1 - 1e-12 of threshold passes the ratio check; the resolvent's
        # condition limit in cavity.comb_io refuses it on the theta = 0 branch
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["pump"]["pump_ratio"] = 0.999999999999
        out = tmp_path / "out"
        assert main(["squeezing", "--config",
                     str(write_config(tmp_path, raw)), "--out",
                     str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["theta"]) == ("at-threshold", 0.0)
        assert "singular" in err["message"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("top", [0.0, 5e-324, 2.6e-311])
    def test_scale_that_is_not_finite_is_refused(self, tmp_path, top):
        gains = np.array([top, 0.0])
        run = spopo.cli._Run(parse_scenario(scenario_dict()), tmp_path)
        with pytest.raises(ValidationError, match="reference gain"):
            run.scaled(gains)
        # a zero pump_ratio scales by 0 whatever the reference gain
        run = spopo.cli._Run(parse_scenario(scenario_dict(
            **{"pump.pump_ratio": 0.0})), tmp_path)
        scaled, scale = run.scaled(gains)
        assert scale == 0.0
        assert not scaled.any()

    def test_finesse_cavity_runs_every_subcommand(self, tmp_path):
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["cavity"] = {"finesse": 30.0, "delta_rt": 0.0}
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        for command in ("supermodes", "squeezing", "pulses", "metrology"):
            assert main([command, "--config", str(path), "--out",
                         str(out)]) == 0
        g_th = threshold_gain(CavityConfig.from_finesse(30.0)).gain
        summary = json.loads((out / "summary.json").read_text())
        assert summary["threshold_gain"] == g_th
        for name in ("gains.csv", "squeezing.csv", "sigma2.csv",
                     "metrology.csv"):
            assert f"# threshold_gain = {g_th:.12g}\n" \
                in (out / name).read_text(), name
        table = load_table(out / "sigma2.csv")
        assert np.all(table["r"] == float("%.12g" % math.sqrt(
            1.0 - 2.0 * math.pi / 30.0)))

    @pytest.mark.parametrize("finesse", [2.0 * math.pi, 1.0])
    def test_finesse_at_most_two_pi_is_config_error(self, tmp_path, capsys,
                                                     finesse):
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["cavity"] = {"finesse": finesse}
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "finesse" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["supermodes", "squeezing", "pulses",
                                         "metrology"])
    def test_omega_max_is_config_error(self, tmp_path, capsys, command):
        # the grid spacing is the comb's: no config key sets it, not even to
        # the value it has
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["grid"]["omega_max"] = parse_scenario(raw).grid.omega_max
        out = tmp_path / "out"
        path = write_config(tmp_path, raw)
        assert main([command, "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "omega_max" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["supermodes", "squeezing", "pulses",
                                         "metrology"])
    def test_carrier_inside_grid_is_config_error(self, tmp_path, capsys,
                                                 command):
        # omega0 + omega must stay positive on the grid: a config error in
        # every subcommand, before --out is made
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["crystal"]["omega0"] = 0.85
        out = tmp_path / "out"
        path = write_config(tmp_path, raw)
        assert main([command, "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "crystal.omega0" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["supermodes", "squeezing", "pulses",
                                         "metrology"])
    @pytest.mark.parametrize("n_points", [2**61 + 1, 2**63 + 1],
                             ids=["2^61+1", "2^63+1"])
    def test_grid_beyond_numpy_is_config_error(self, tmp_path, capsys,
                                               command, n_points):
        # numpy refuses to lay out these grids (a ValueError at 2^61 + 1, an
        # IndexError at 2^63 + 1); the carrier stays above omega_max, and
        # pulses, which lays out none, refuses alike
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["grid"]["n_points"] = n_points
        raw["crystal"]["omega0"] = 1e40
        out = tmp_path / "out"
        path = write_config(tmp_path, raw)
        assert main([command, "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "grid.n_points" in err["message"]
        assert not out.exists()


COMMANDS = ("supermodes", "squeezing", "pulses", "metrology")


def every_command(code):
    return dict.fromkeys(COMMANDS, code)


#: twins of configs/default.json: {(section, key[, index]): value} edits, the
#: subcommands that refuse and their error codes (a subcommand not named
#: runs), and a fragment of every refusal's message.  A refusal is one error
#: line, and it leaves no --out.
EDGE_TWINS = {
    # a pump spectrum that leaks out of the 171-point window
    "leak": ({("pump", "tau_p"): 8.5e-16}, every_command("spectral-leakage"),
             "leaks outside"),
    # a coupling so small that the pump_ratio scale is ~1e300
    "tiny": ({("crystal", "d_eff"): 1e-300}, {}, None),
    # a theta_max integer beyond int64
    "huge-theta": ({("run", "theta_max"): 10**19}, {}, None),
    # a kernel peak of exactly 0, or a subnormal one (1.7e-318), so no gain
    # to scale to the pump_ratio
    "zero-d_eff": ({("crystal", "d_eff"): 0.0},
                   every_command("validation-error"), "cannot scale"),
    "zero-A_eff": ({("crystal", "A_eff"): 1e300},
                   every_command("validation-error"), "cannot scale"),
    "zero-tau_p": ({("pump", "tau_p"): 1e-200},
                   every_command("validation-error"), "cannot scale"),
    "subnormal-peak": ({("crystal", "d_eff"): 1e-300,
                        ("crystal", "A_eff"): 1e46},
                       every_command("validation-error"), "peak 1.70973e-318"),
    # a normal kernel peak (5.15e-296) whose phase mismatch leaves a
    # subnormal top gain (2.6e-311): no finite factor takes it to the
    # pump_ratio; pulses reads no kernel on a pump_ratio config, and runs
    "subnormal-top-gain": ({("crystal", "signal_dispersion", 0): 1e20,
                            ("crystal", "pump_dispersion", 0): 0.0,
                            ("crystal", "d_eff"): 1e-305},
                           {"supermodes": "validation-error",
                            "squeezing": "validation-error",
                            "metrology": "validation-error"},
                           "reference gain is 2.6"),
    # a negative coupling flips the kernel's sign, not its singular values
    "negative-d_eff": ({("crystal", "d_eff"): -2e-12}, {}, None),
    # chi0's omega0^2 or n0^3, or the spectrum norm's sigma_t^2, overflows
    "huge-omega0": ({("crystal", "omega0"): 1e160},
                    every_command("config-error"), "chi0 overflows"),
    "huge-n0": ({("crystal", "n0"): 1e110}, every_command("config-error"),
                "chi0 overflows"),
    "huge-T0": ({("pump", "T0"): 1e300, ("pump", "tau_p"): 1e298},
                every_command("config-error"), "tau_p"),
    # the phase mismatch overflows, and sin(inf) would put NaN in the kernel
    "nonfinite-p1": ({("crystal", "pump_dispersion", 1): -1e300},
                     every_command("validation-error"), "non-finite"),
    "nonfinite-p2": ({("crystal", "pump_dispersion", 2): 1e300},
                     every_command("validation-error"), "non-finite"),
    # N n_bar0 omega_eff^2 overflows: no probe amplitude
    "huge-n_bar0": ({("run", "n_bar0"): 1e300},
                    {"metrology": "validation-error"}, "probe amplitude"),
    # below the phase-dependent threshold, but the pulse closed forms need a
    # resonant round trip
    "off-resonant": ({("pump", "delta0"): 0.3},
                     {"pulses": "validation-error",
                      "metrology": "validation-error"}, "resonant"),
}


# any warning fails the test, not only a numpy RuntimeWarning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("twin", EDGE_TWINS)
def test_every_command_answers_an_edge_twin_alike(tmp_path, capsys, twin,
                                                  command):
    # a refusal is one error line on stderr, even in pulses, which builds
    # no kernel on a pump_ratio config; a run exits 0 with nothing on
    # stderr (a numpy warning fails the test)
    edits, refusals, fragment = EDGE_TWINS[twin]
    raw = json.loads(DEFAULT_CONFIG.read_text())
    for (section, key, *index), value in edits.items():
        if index:
            raw[section][key][index[0]] = value
        else:
            raw[section][key] = value
    out = tmp_path / "out"
    code = main([command, "--config", str(write_config(tmp_path, raw)),
                 "--out", str(out)])
    err = capsys.readouterr().err
    if command in refusals:
        errors = [json.loads(line) for line in err.splitlines()]
        assert (code, [e["error"] for e in errors]) == (
            2 if refusals[command] == "config-error" else 3,
            [refusals[command]])
        assert fragment in errors[0]["message"]
        assert not out.exists()
        return
    assert (code, err) == (0, "")
    if twin == "huge-theta" and command == "squeezing":
        # the float twin writes the same rows
        raw["run"]["theta_max"] = float(raw["run"]["theta_max"])
        twin_out = tmp_path / "float"
        twin_path = tmp_path / "float.json"
        twin_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(twin_path), "--out",
                     str(twin_out)]) == 0
        rows = [[line for line in (path / "squeezing.csv").read_text()
                 .splitlines() if not line.startswith("#")]
                for path in (out, twin_out)]
        assert rows[0] == rows[1]
        assert len(rows[0]) > 1


def loaded_modules(code):
    """numpy and spopo modules in sys.modules after ``code`` runs in a fresh
    interpreter (``sys`` is imported)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; " + code + "; print(json."
         "dumps([m for m in sys.modules if m == 'numpy' or m == 'spopo' "
         "or m.startswith('spopo.')]))"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


#: the layers a subcommand may skip
DEFERRED = {"spopo.supermodes", "spopo.pulses", "spopo.metrology"}
#: everything ``import spopo.cli`` loads: numpy and the layers every
#: subcommand needs, none of DEFERRED
CLI_MODULES = {"numpy", "spopo", "spopo.cli", "spopo.config", "spopo.cavity",
               "spopo.kernel", "spopo.errors"}


class TestStartup:
    """What a CLI process pays around its work: imports and finalization."""

    def test_import_spopo_loads_no_submodule(self):
        assert loaded_modules("import spopo") == {"spopo"}

    def test_import_cli_skips_deferred_layers(self):
        assert loaded_modules("import spopo.cli") == CLI_MODULES

    def test_supermode_layer_stands_on_the_kernel(self):
        # no config, and through it no cavity layer
        assert loaded_modules("import spopo.supermodes") == {
            "numpy", "spopo", "spopo.supermodes", "spopo.kernel",
            "spopo.errors"}

    @pytest.mark.parametrize("command, layers", [
        ("supermodes", {"spopo.supermodes"}),
        ("squeezing", {"spopo.supermodes"}),
        ("pulses", {"spopo.pulses"}),
        ("metrology", DEFERRED)])
    def test_subcommand_imports_only_its_layers(self, tmp_path, command,
                                                layers):
        # a pump_ratio config: pulses needs no kernel decomposition
        path = write_config(tmp_path, scenario_dict())
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        loaded = loaded_modules(
            f"import spopo.cli; assert spopo.cli.main({argv!r}) == 0")
        assert loaded & DEFERRED == layers

    def test_exports_resolve_to_defining_module(self):
        assert set(spopo.__all__) <= set(dir(spopo))
        for name in spopo.__all__:
            value = getattr(spopo, name)
            assert value.__module__.startswith("spopo.")
            assert getattr(sys.modules[value.__module__], name) is value
        with pytest.raises(AttributeError, match="no_such_name"):
            spopo.no_such_name
        # removed with no pipeline, oracle or diagnostic left to use them,
        # and the oracles that moved to tests/oracles.py
        for name in ("CombFunction", "synthesize_comb", "comb_inner_product",
                     "project_pulse", "pulse_train_from_coefficients",
                     "pair_covariance", "epr_pair_check",
                     "TranslationGenerator", "omega_matrix", "compose",
                     "minimum_quadrature_variance", "quadrature_matrix",
                     "symplectic", "io_series_coefficients",
                     "min_variance_direct", "output_covariance",
                     "phase_matching", "AboveThresholdError"):
            assert name not in spopo.__all__
            with pytest.raises(AttributeError, match=name):
                getattr(spopo, name)

    def test_benchmark_traced_names_resolve(self, monkeypatch):
        # perfbench/layers.py looks each traced function up by name in the
        # loaded spopo modules; a renamed or deleted one breaks --trace
        path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_layers", path)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        names = (*layers.SPAN_FUNCTIONS, *layers.AGGREGATED_FUNCTIONS)
        for name in names:
            importlib.import_module(f"spopo.{name.partition('.')[0]}")
        for name in names:
            assert callable(layers._lookup(name)), name

    def test_main_leaves_collector_unfrozen(self, tmp_path):
        path = write_config(tmp_path, scenario_dict())
        assert main(["pulses", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 0
        assert gc.get_freeze_count() == 0

    def test_console_main_freezes_on_the_way_out(self, tmp_path):
        path = write_config(tmp_path, scenario_dict())
        argv = ["spopo", "pulses", "--config", str(path), "--out",
                str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-c", "import gc, sys, spopo.cli; "
             f"sys.argv = {argv!r}; code = spopo.cli.console_main(); "
             "print(code, gc.get_freeze_count() > 0)"],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"

    @pytest.mark.parametrize("command, pump, code", [
        ("pulses", {"pump_ratio": 0.8}, 0),
        ("supermodes", {"energy": 1e-6}, 3),
        ("squeezing", {"pump_ratio": 0.8}, 0)],
        ids=["written", "at-threshold", "spectrum-read"])
    def test_module_path_matches_in_process(self, tmp_path, capsys, command,
                                            pump, code):
        # the process runs second in the same directory: a squeezing process
        # reads the spectrum that the in-process run stored
        raw = scenario_dict()
        del raw["pump"]["pump_ratio"]
        raw["pump"].update(pump)
        argv = [command, "--config", str(write_config(tmp_path, raw)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "spopo.cli", *argv],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert (proc.stdout, proc.stderr, proc.returncode) \
            == (captured.out, captured.err, code)
