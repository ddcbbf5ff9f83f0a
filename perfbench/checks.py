"""Output checks for the spopo CLI, against reference values built without spopo.

Every reference here comes from the physics the scenario schema states
(kernel shape, cavity 2x2 input-output solve, Toeplitz pulse covariances)
evaluated with plain numpy, so a change to the library cannot change what its
outputs are compared with.  Tolerances are loose enough to survive
floating-point reassociation (closed forms in place of per-point solves) and
the 12 significant digits of the CSV files.

Only scenarios with zero round-trip phase (pump.delta0 = cavity.delta_rt = 0)
are supported; the benchmark generates no other.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

#: largest N checked against a dense eigensolve of the pulse covariance
DENSE_N_MAX = 512
#: rows drawn per output file and pass for the sampled checks
SAMPLES = 16


def _close(actual, expected, tol) -> bool:
    """|a - b| <= tol * max(1, |b|), elementwise, NaN never close."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return bool(np.all(np.abs(actual - expected)
                       <= tol * np.maximum(1.0, np.abs(expected))))


def read_csv(path: Path) -> tuple[dict, dict]:
    """'#'-metadata CSV -> (metadata dict, named float columns)."""
    lines = path.read_text().splitlines()
    meta = {}
    start = 0
    while lines[start].startswith("#"):
        key, _, value = lines[start][1:].partition("=")
        meta[key.strip()] = value.strip()
        start += 1
    names = lines[start].split(",")
    data = np.loadtxt(lines[start + 1:], delimiter=",", ndmin=2)
    return meta, {name: data[:, i] for i, name in enumerate(names)}


def pulse_covariance(gain: float, r: float, n: int, sign: float) -> np.ndarray:
    """Toeplitz x (sign +1) or p (sign -1) covariance of n resonant pulses."""
    e2 = math.exp(2.0 * sign * gain)
    t2 = 1.0 - r * r
    denom = 1.0 - r * r * e2
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    off = -0.5 * t2 * (1.0 - e2) / denom * (r * math.exp(sign * gain)) ** sep
    return np.where(sep == 0, 0.5 * (r * r + t2 * t2 * e2 / denom), off)


def min_variance(gain: float, r: float, n: int) -> float:
    """Smallest eigenvalue of V^(-)(n) by a dense symmetric eigensolve."""
    return float(np.linalg.eigvalsh(pulse_covariance(gain, r, n, -1.0))[0])


def variance_limit(gain: float, r: float) -> float:
    """Large-N minimum variance (1/2) [(r - e^-g) / (1 - r e^-g)]^2."""
    q = math.exp(-gain)
    return 0.5 * ((r - q) / (1.0 - r * q)) ** 2


def comb_block(gain: float, theta: float, r: float) -> tuple[complex, complex]:
    """(C, S) of M = (A - r)(1 - r A)^-1 for the resonant round-trip block A."""
    u = np.exp(1j * theta)
    a = u * np.array([[math.cosh(gain), math.sinh(gain)],
                      [math.sinh(gain), math.cosh(gain)]])
    m = (a - r * np.eye(2)) @ np.linalg.inv(np.eye(2) - r * a)
    return complex(m[0, 0]), complex(m[0, 1])


class Oracle:
    """Reference values for one scenario, and the checks of each subcommand."""

    def __init__(self, scenario: dict):
        pump, crystal, run = scenario["pump"], scenario["crystal"], scenario["run"]
        if pump.get("delta0", 0.0) or scenario["cavity"].get("delta_rt", 0.0):
            raise ValueError("checks support zero round-trip phase only")
        self.r = scenario["cavity"]["r"]
        self.g_th = math.acosh((1.0 + self.r**2) / (2.0 * self.r))
        self.g0 = pump["pump_ratio"] * self.g_th
        self.ratios = [float(x) for x in run["ratios"]]
        self.n_max = run["N_max"]
        self.probe_pulses = run["probe_pulses"]
        self.n_bar0 = run["n_bar0"]
        self.n_modes_dump = run["n_modes_dump"]
        self.gain_cutoff = run["gain_cutoff"]
        theta_max = run["theta_max"]
        self.thetas = np.linspace(-theta_max, theta_max, run["theta_points"])

        n = scenario["grid"]["n_points"]
        t0 = pump["T0"]
        self.n_points = n
        self.dt = t0 / n
        spacing = 2.0 * math.pi / t0
        self.omegas = np.linspace(-(n - 1) // 2 * spacing, (n - 1) // 2 * spacing, n)
        self.weight = spacing / (2.0 * math.pi)

        # kernel up to a constant factor: Gaussian pump spectrum at w + w'
        # times the sinc phase matching; gain ratios and modes are scale free
        w1, w2 = np.meshgrid(self.omegas, self.omegas, indexing="ij")
        sigma_t = pump["tau_p"] / (2.0 * math.sqrt(math.log(2.0)))

        def k(c, x):
            return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

        ks, kp = crystal["signal_dispersion"], crystal["pump_dispersion"]
        dphi = 0.5 * crystal["l_c"] * (k(ks, w1) + k(ks, w2) - k(kp, w1 + w2))
        kern = np.exp(-(sigma_t * (w1 + w2)) ** 2 / 2.0) * np.sinc(dphi / np.pi)
        kern = 0.5 * (kern + kern.T)
        u, s, _ = np.linalg.svd(kern)
        self.gain_ratios = s / s[0]
        self.modes = np.abs(u)
        self.n_kept = int(np.count_nonzero(self.gain_ratios >= self.gain_cutoff))
        self.gains = self.g0 * self.gain_ratios[:self.n_kept]

    def sizes(self) -> dict:
        return {"n_points": self.n_points, "n_kept": self.n_kept,
                "theta_points": int(self.thetas.size), "N_max": self.n_max,
                "ratios": self.ratios}

    def check(self, command: str, outdir: Path, rng: random.Random) -> list[str]:
        """Failure messages for one subcommand's outputs (empty when correct)."""
        failures: list[str] = []

        def expect(ok: bool, message: str) -> None:
            if not ok:
                failures.append(f"{command}: {message}")

        try:
            getattr(self, f"_check_{command}")(outdir, rng, expect)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{command}: unreadable output: {exc!r}")
        return failures

    def _check_supermodes(self, outdir, rng, expect):
        meta, gains = read_csv(outdir / "gains.csv")
        g = gains["gain"]
        expect(g.size == self.n_points, f"gains.csv has {g.size} rows")
        expect(int(meta["n_kept"]) == self.n_kept, f"n_kept {meta['n_kept']}")
        expect(_close(float(meta["threshold_gain"]), self.g_th, 1e-9),
               "threshold gain")
        expect(_close(g[0], self.g0, 1e-9), f"g0 {g[0]!r} != {self.g0!r}")
        expect(_close(g / g[0], self.gain_ratios, 1e-9), "gain ratios vs svd")
        for n in range(min(self.n_kept, self.n_modes_dump)):
            _, mode = read_csv(outdir / f"mode_{n:03d}.csv")
            amp = np.hypot(mode["re_psi"], mode["im_psi"]) * math.sqrt(self.weight)
            expect(_close(mode["omega"] / self.omegas[-1],
                          self.omegas / self.omegas[-1], 1e-9), f"mode {n} grid")
            expect(_close(np.sum(amp**2), 1.0, 1e-9), f"mode {n} norm")
            expect(_close(amp, self.modes[:, n], 1e-7), f"mode {n} shape")

    def _check_squeezing(self, outdir, rng, expect):
        _, sq = read_csv(outdir / "squeezing.csv")
        n_theta = self.thetas.size
        expect(sq["theta"].size == self.n_kept * n_theta,
               f"squeezing.csv has {sq['theta'].size} rows")
        if sq["theta"].size != self.n_kept * n_theta:
            return
        expect(_close(sq["theta"], np.tile(self.thetas, self.n_kept), 1e-9),
               "theta column")
        expect(np.array_equal(sq["mode"], np.repeat(np.arange(self.n_kept), n_theta)),
               "mode column")
        expect(_close(4.0 * sq["var_x"] * sq["var_p"], 1.0, 1e-9),
               "var_x var_p != 1/4")
        at_zero = sq["theta"] == 0.0
        expect(at_zero.any() == (0.0 in self.thetas), "no theta = 0 row")
        expect(np.array_equal(np.isnan(sq["epr_variance"]), at_zero),
               "EPR NaN rows differ from theta = 0 rows")
        for row in rng.sample(range(sq["theta"].size), min(SAMPLES, sq["theta"].size)):
            mode, j = divmod(row, n_theta)
            gain, theta = self.gains[mode], self.thetas[j]
            c, s = comb_block(gain, theta, self.r)
            expect(_close(sq["var_x"][row], 0.5 * (abs(c) + abs(s)) ** 2, 1e-9)
                   and _close(sq["var_p"][row], 0.5 * (abs(c) - abs(s)) ** 2, 1e-9),
                   f"row {row} variances vs 2x2 solve")
            if theta != 0.0:
                _, s_minus = comb_block(gain, -theta, self.r)
                epr = 2.0 * (0.5 * (1.0 + 2.0 * abs(s) ** 2) - abs(c * s_minus))
                expect(_close(sq["epr_variance"][row], epr, 1e-9),
                       f"row {row} EPR vs 2x2 solve")

    def _check_pulses(self, outdir, rng, expect):
        _, sig = read_csv(outdir / "sigma2.csv")
        expect(np.array_equal(sig["N"], np.arange(1, self.n_max + 1)), "N column")
        if sig["N"].size != self.n_max:
            return
        expect(_close(sig["g"], self.g0, 1e-9), "g column")
        expect(_close(sig["r"], self.r, 1e-12), "r column")
        expect(_close(sig["sigma2_normalized"], 2.0 * sig["sigma2_abs"], 1e-9),
               "sigma2_normalized != 2 sigma2_abs")
        for n in rng.sample(range(1, min(self.n_max, DENSE_N_MAX) + 1),
                            min(SAMPLES // 2, self.n_max, DENSE_N_MAX)):
            expect(_close(sig["sigma2_abs"][n - 1], min_variance(self.g0, self.r, n),
                          1e-9), f"sigma2(N={n}) vs dense eigensolve")
        n_duan = min(self.n_max, 12)
        if n_duan >= 2:
            _, duan = read_csv(outdir / "duan.csv")
            vp = pulse_covariance(self.g0, self.r, n_duan, 1.0)
            vm = pulse_covariance(self.g0, self.r, n_duan, -1.0)
            d = np.arange(1, n_duan)
            ref = 2.0 * (vp[0, 0] - vp[0, d]) + 2.0 * (vm[0, 0] + vm[0, d])
            expect(np.array_equal(duan["separation"], d)
                   and _close(duan["duan_sum"], ref, 1e-9), "duan.csv")

    def _check_metrology(self, outdir, rng, expect):
        _, met = read_csv(outdir / "metrology.csv")
        n_ratio = len(self.ratios)
        expect(met["N"].size == n_ratio * self.n_max,
               f"metrology.csv has {met['N'].size} rows")
        if met["N"].size != n_ratio * self.n_max:
            return
        expect(_close(met["ratio"], np.repeat(self.ratios, self.n_max), 1e-12)
               and np.array_equal(met["N"], np.tile(np.arange(1, self.n_max + 1),
                                                    n_ratio)), "ratio/N columns")
        expect(_close(met["improvement"], 1.0 / np.sqrt(2.0 * met["sigma2"]), 1e-9),
               "improvement != 1/sqrt(2 sigma2)")
        asym = [1.0 / math.sqrt(2.0 * variance_limit(x * self.g_th, self.r))
                for x in self.ratios]
        expect(_close(met["asymptote"], np.repeat(asym, self.n_max), 1e-9),
               "asymptote")
        for _ in range(SAMPLES // 2):
            i = rng.randrange(n_ratio)
            n = rng.randrange(1, min(self.n_max, DENSE_N_MAX) + 1)
            ref = min_variance(self.ratios[i] * self.g_th, self.r, n)
            expect(_close(met["sigma2"][i * self.n_max + n - 1], ref, 1e-9),
                   f"sigma2(ratio={self.ratios[i]}, N={n}) vs dense eigensolve")
        summary = json.loads((outdir / "summary.json").read_text())
        expect(_close(summary["ratios"], self.ratios, 1e-12)
               and _close(summary["asymptote"], asym, 1e-9), "summary.json")
        _, probe = read_csv(outdir / "probe.csv")
        expect(probe["t"].size == self.probe_pulses * self.n_points,
               f"probe.csv has {probe['t'].size} rows")
        energy = np.sum(probe["re"] ** 2 + probe["im"] ** 2) * self.dt
        expect(abs(energy / (self.probe_pulses * self.n_bar0) - 1.0) <= 1e-8,
               f"probe energy {energy!r}")
