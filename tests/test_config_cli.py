import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spopo.cli
import spopo.metrology
import spopo.supermodes
from spopo import (CavityConfig, ConfigError, build_kernel, covariance,
                   duan_sum, optimal_probe, schmidt_decompose, threshold_gain)
from spopo.supermodes import takagi_values
from spopo.cli import _write_csv, main
from spopo.config import load_scenario, parse_scenario

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
        full_g0 = takagi_values(build_kernel(cfg.grid, cfg.pump,
                                             cfg.crystal).matrix)[0]
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
        decompose = spopo.supermodes.schmidt_decompose
        values = spopo.supermodes.takagi_values

        def spy(*args, n_modes=None, **kwargs):
            requested.append(n_modes)
            return decompose(*args, n_modes=n_modes, **kwargs)

        def shifted(matrix):
            gains = values(matrix)
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
    @pytest.mark.parametrize("command, field, value", [
        ("pulses", "run.N_max", 10**12),
        ("squeezing", "run.theta_points", 10**12),
        ("squeezing", "grid.n_points", 1_000_001),
    ], ids=["N_max", "theta_points", "n_points"])
    def test_unallocatable_size_is_config_error(self, tmp_path, capsys,
                                                command, field, value):
        # each asks numpy for one 7.28 TiB array, which a kernel that does
        # not overcommit refuses at once, before any page is touched
        path = write_config(tmp_path, scenario_dict(**{field: value}))
        code = main([command, "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "7.28 TiB" in err["message"]

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys,
                                               monkeypatch):
        path = write_config(tmp_path, scenario_dict())
        out = tmp_path / "taken"
        out.write_text("kept")

        def no_work(*args):
            raise AssertionError("runner called")

        monkeypatch.setitem(spopo.cli._RUNNERS, "pulses", no_work)
        assert main(["pulses", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "--out" in err["message"]
        assert out.read_text() == "kept"

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
        cov = covariance(0.8 * threshold_gain(cavity, 0.0).gain, -cavity.r, 12)
        duan = load_table(out / "duan.csv")
        np.testing.assert_allclose(
            duan["duan_sum"], [duan_sum(cov, 0, d) for d in range(1, 12)],
            rtol=1e-11)
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
        # the cavity reads the total round-trip phase delta_rt + ceo_half
        outs = [self._run_branch(tmp_path, "cavity", command,
                                 **{"cavity.delta_rt": np.pi}),
                self._run_branch(tmp_path, "pump", command,
                                 **{"pump.delta0": np.pi})]
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            texts = [[ln for ln in (d / name).read_text().splitlines()
                      if "config_hash" not in ln] for d in outs]
            assert texts[0] == texts[1], name

    def test_metrology_zero_energy_writes_nothing(self, tmp_path, capsys):
        # a zero pump keeps no mode, so there is no probe: refused before
        # metrology.csv or summary.json is written
        raw = scenario_dict()
        del raw["pump"]["pump_ratio"]
        raw["pump"]["energy"] = 0
        out = tmp_path / "out"
        code = main(["metrology", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert list(out.iterdir()) == []

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


class TestStartup:
    """What a CLI process pays around its work: imports and finalization."""

    def test_import_spopo_loads_no_submodule(self):
        assert loaded_modules("import spopo") == {"spopo"}

    def test_import_cli_skips_deferred_layers(self):
        assert not loaded_modules("import spopo.cli") & DEFERRED

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
        ("supermodes", {"energy": 1e-6}, 3)], ids=["written", "at-threshold"])
    def test_module_path_matches_in_process(self, tmp_path, capsys, command,
                                            pump, code):
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
