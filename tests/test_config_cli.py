import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spopo.cli
from spopo import (CavityConfig, ConfigError, build_kernel, covariance,
                   duan_sum, schmidt_decompose, threshold_gain)
from spopo.cli import _write_csv, main
from spopo.config import load_scenario, parse_scenario

from conftest import (OMEGA0, PUMP_DISPERSION, SIGNAL_DISPERSION, T0, TAU_P)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


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

    def test_r_and_finesse_exclusive(self):
        raw = scenario_dict(**{"cavity.finesse": 30.0})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(raw)

    def test_physical_validation_becomes_config_error(self):
        with pytest.raises(ConfigError, match="invalid configuration"):
            parse_scenario(scenario_dict(**{"pump.tau_p": T0}))

    def test_run_section_types(self):
        with pytest.raises(ConfigError, match="run.ratios"):
            parse_scenario(scenario_dict(**{"run.ratios": [0.5, "x"]}))
        with pytest.raises(ConfigError, match="run.N_max"):
            parse_scenario(scenario_dict(**{"run.N_max": "many"}))
        with pytest.raises(ConfigError, match="run.ratios"):
            parse_scenario(scenario_dict(**{"run.ratios": [1.0]}))
        with pytest.raises(ConfigError, match="run.dump_kernel"):
            parse_scenario(scenario_dict(**{"run.dump_kernel": "yes"}))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


class TestCliRuns:
    def test_missing_field_exit_code(self, tmp_path, capsys):
        raw = scenario_dict()
        del raw["pump"]["T0"]
        path = write_config(tmp_path, raw)
        code = main(["pulses", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "pump.T0" in err["message"]

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
        matrix = build_kernel(cfg.grid, cfg.pump, cfg.crystal).matrix
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
        ("squeezing", {"pump_ratio": 0.8}),
        ("pulses", {"energy": 2e-10})], ids=["squeezing", "pulses-energy"])
    def test_gains_only_runs_build_no_eigenvectors(self, tmp_path, monkeypatch,
                                                   command, pump):
        # squeezing, and pulses for an energy config, read the gains alone
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
        def small_only(solver):
            def guarded(a, *args, **kwargs):
                if np.shape(a)[0] >= 341:
                    raise AssertionError("full eigensolve of the kernel")
                return solver(a, *args, **kwargs)
            return guarded

        path = write_config(tmp_path, scenario_dict(**{"grid.n_points": 341}))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                small_only(getattr(np.linalg, name)))
        assert main(["metrology", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 0

    def test_supermodes_modes_match_full_decomposition(self, tmp_path):
        raw = scenario_dict(**{"grid.n_points": 341, "run.n_modes_dump": 3})
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["supermodes", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_scenario(path)
        basis = schmidt_decompose(build_kernel(cfg.grid, cfg.pump, cfg.crystal),
                                  rep_period=T0)
        gains = load_table(out / "gains.csv")["gain"]
        scale = 0.8 * threshold_gain(cfg.cavity, 0.0).gain / basis.gains[0]
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
        decompose = spopo.cli.schmidt_decompose
        values = spopo.cli.takagi_values

        def spy(*args, n_modes=None, **kwargs):
            requested.append(n_modes)
            return decompose(*args, n_modes=n_modes, **kwargs)

        def shifted(matrix):
            gains = values(matrix)
            gains[1] *= 1.0 + 1e-9
            return gains

        path = write_config(tmp_path, scenario_dict(**{"run.n_modes_dump": 2}))
        monkeypatch.setattr(spopo.cli, "schmidt_decompose", spy)
        assert main(["supermodes", "--config", str(path), "--out",
                     str(tmp_path / "a")]) == 0
        assert requested == [2]
        monkeypatch.setattr(spopo.cli, "takagi_values", shifted)
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
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               command, field, index, value):
        # json reads NaN and Infinity; each is refused before any output
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
        fast = _write_csv(tmp_path / "array.csv", header, rows, meta)
        slow = _write_csv(tmp_path / "rows.csv", header, iter(rows), meta)
        assert fast.read_bytes() == slow.read_bytes()
        body = fast.read_text().splitlines()
        assert body[2:4] == ["nan,inf,-inf", "-0,0,1e-300"]
        assert len(body) == 2 + 5000

    def test_zero_n_bar0_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_dict(**{"run.n_bar0": 0}))
        code = main(["metrology", "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "run.n_bar0" in err["message"]

    def test_threshold_config_exit_code(self, tmp_path, capsys):
        # delta at pi/2 has no finite threshold: physics-domain error (3)
        raw = scenario_dict(**{"cavity.delta_rt": np.pi / 2})
        path = write_config(tmp_path, raw)
        code = main(["pulses", "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "no-finite-threshold"

    def test_odd_branch_duan_sums(self, tmp_path):
        # delta_rt = pi resonates on the odd branch: sign-alternating V^(-)
        path = write_config(tmp_path, scenario_dict(**{"cavity.delta_rt": np.pi}))
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 0
        cavity = CavityConfig(r=0.8894, delta_rt=np.pi)
        cov = covariance(0.8 * threshold_gain(cavity, 0.0).gain, cavity.r, 12,
                         "odd")
        duan = load_table(out / "duan.csv")
        np.testing.assert_allclose(
            duan["duan_sum"], [duan_sum(cov, 0, d) for d in range(1, 12)],
            rtol=1e-11)

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

    @pytest.mark.parametrize("command", ["supermodes", "squeezing",
                                         "metrology"])
    def test_non_finite_kernel_refused(self, tmp_path, capsys, command):
        # the phase mismatch overflows, and sin(inf) puts NaN in the kernel
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["crystal"]["pump_dispersion"][2] = 1e300
        out = tmp_path / "o"
        with warnings.catch_warnings():
            # the overflow is refused as an error object, not warned about
            warnings.simplefilter("error")
            code = main([command, "--config",
                         str(write_config(tmp_path, raw)), "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert "non-finite" in err["message"]
        assert not list(out.glob("*.csv"))

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
        # supermodes and metrology processes never touch modes_time
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
        # neither the CLI nor a complex Takagi factorisation needs scipy, and
        # the Lanczos start vector needs no numpy.random
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, numpy as np, spopo.cli; "
             "a = np.arange(16.0).reshape(4, 4) * (1 + 2j); "
             "spopo.takagi(a + a.T); "
             "spopo.takagi(np.diag(0.5 ** np.arange(100.0)), 1); print(sorted("
             "m for m in sys.modules if m.partition('.')[0] == 'scipy' "
             "or m.startswith('numpy.random')))"],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_rerun_is_bitwise_identical(self, tmp_path):
        path = write_config(tmp_path, scenario_dict())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        names = {"metrology": ("metrology.csv", "summary.json", "probe.csv"),
                 "pulses": ("sigma2.csv", "duan.csv"),
                 "squeezing": ("squeezing.csv",)}
        for command, files in names.items():
            for out in (out_a, out_b):
                assert main([command, "--config", str(path),
                             "--out", str(out / command)]) == 0
            for name in files:
                assert (out_a / command / name).read_bytes() \
                    == (out_b / command / name).read_bytes()

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

    def test_seed_recorded_in_metadata(self, tmp_path):
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "out"
        assert main(["pulses", "--config", str(path), "--out", str(out),
                     "--seed", "7"]) == 0
        header = (out / "sigma2.csv").read_text().splitlines()[:3]
        assert any("seed = 7" in line for line in header)
