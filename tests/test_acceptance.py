"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion NN: PASS/FAIL` line (visible with -s, or in
the captured output on failure).

Criterion 06 checks the pairwise entanglement of pulses against an exact
oracle.  Two Gaussian modes are entangled exactly when the smallest
symplectic eigenvalue of their partially transposed 4x4 covariance is below
the vacuum variance 1/2 (Simon, PRL 84, 2726 (2000)); the Duan sum
Var(x_j - x_k) + Var(p_j + p_k) < 2 is only sufficient (Duan, Giedke, Cirac,
Zoller, PRL 84, 2722 (2000)).  Adjacent pulses give
duan_sum = 2 - 4 r g + O(g^2), below 2 at small gain only: at r = 0.3 the
sum reaches 2 near 25% of threshold, and 52 of the criterion's 200 adjacent
draws have a sum >= 2 (up to 7.98) although all 200 adjacent pairs are
entangled by the partial-transpose test.  The test name records the
separability claim the criterion first made; the closed-form covariances,
which agree with the input-output series (criterion 03) and the comb-block
integral, refute it.

The oracles live in ``tests/oracles.py``, outside the library: criterion
06's series oracle (``series_covariance_entry``, a direct summation of the
input-output series) and partial-transpose test
(``ppt_min_symplectic_eigenvalue``), criterion 03's
``io_series_coefficients``, criterion 04's dense ``min_variance_direct``,
criterion 05's ``output_covariance``, criterion 09's double-Gaussian kernel
and ``reconstruction_residual``, criterion 11's Fock-space variance and
criterion 12's direct Fourier sum (``direct_time_samples``).
"""

import time

import numpy as np

from spopo import (CavityConfig, check_symplectic, comb_io, covariance,
                   duan_sum, fisher_information, improvement_curve,
                   min_variance_transcendental, schmidt_decompose,
                   sigma2_limit, threshold_gain)
from spopo.metrology import ASYMPTOTE_FRACTION

from conftest import GAIN_CUTOFF, below_threshold_draws
from oracles import (direct_time_samples, double_gaussian_kernel,
                     double_gaussian_law, fock_variance_of_x,
                     io_series_coefficients, min_variance_direct,
                     output_covariance,
                     ppt_min_symplectic_eigenvalue, pulse_pair_covariance,
                     reconstruction_residual, series_covariance_entry)

R_SWEEP = (0.5, 0.8, 0.9, 0.99)
FIG3_R = 0.8894


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_threshold_identity():
    worst = 0.0
    for r in R_SWEEP:
        result = threshold_gain(CavityConfig(r=r))
        worst = max(worst, abs(result.gain - (-np.log(r))))
        assert result.branch_theta == 0.0
    start = time.perf_counter()
    for _ in range(1000):
        threshold_gain(CavityConfig(r=0.9))
    per_call = (time.perf_counter() - start) / 1000
    report(1, worst <= 1e-12 and per_call < 1e-3,
           f"max |g_th + ln r| = {worst:.2e}, {per_call * 1e6:.1f} us/call")


def test_criterion_02_threshold_pulse_variance():
    worst = 0.0
    for r in R_SWEEP:
        v_minus = covariance(-np.log(r), r, 3).v_minus
        value = v_minus[1, 1] / 0.5
        worst = max(worst, abs(value - 2 * r**2 / (1 + r**2)))
    # divergence margin: r = 0.99 excluded; near r -> 1 the closed form gives
    # V+ ~ (1 - r)/eps, i.e. only ~1e3 x vacuum at this offset
    v_plus_min = np.inf
    for r in (0.5, 0.8, 0.9, FIG3_R):
        g_near = -np.log(r) * (1 - 1e-5)
        v_plus_min = min(v_plus_min, covariance(g_near, r, 1).v_plus[0, 0])
    report(2, worst <= 1e-10 and v_plus_min > 1e4 * 0.5,
           f"max normalized V- deviation {worst:.2e}, "
           f"min near-threshold V+ = {v_plus_min:.3e}")


def test_criterion_03_covariance_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for gain, r in below_threshold_draws(rng, 100):
        cx, cp = io_series_coefficients(gain, r)
        cov = covariance(gain, r, 6)
        for coeff, mat in ((cx, cov.v_plus), (cp, cov.v_minus)):
            worst = max(worst, abs(0.5 * np.sum(coeff**2) - mat[0, 0]))
            for sep in range(1, 6):
                series = 0.5 * np.sum(coeff[sep:] * coeff[:-sep])
                worst = max(worst, abs(series - mat[0, sep]))
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-10 and elapsed < 1.0,
           f"max |series - closed form| = {worst:.2e} in {elapsed:.2f} s")


def test_criterion_04_min_variance_oracle_equivalence():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst_sigma = 0.0
    worst_overlap = 0.0
    for n in (2, 3, 5, 8, 16, 32, 64):
        for gain, r in below_threshold_draws(rng, 3):
            semi = min_variance_transcendental(gain, r, n)
            dense = min_variance_direct(covariance(gain, r, n))
            worst_sigma = max(worst_sigma, abs(semi.sigma2 - dense.sigma2))
            worst_overlap = max(worst_overlap,
                                1 - abs(np.dot(semi.eigvec, dense.eigvec)))
    elapsed = time.perf_counter() - start
    report(4, worst_sigma <= 1e-8 and worst_overlap <= 1e-8 and elapsed < 5.0,
           f"sigma2 diff {worst_sigma:.2e}, 1-overlap {worst_overlap:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_05_large_n_limit():
    # convergence is O(1/N^2) with a prefactor ~ (1 - r e^-g)^-4: the stated
    # (N = 2000, 1e-6) budget requires a moderate r e^-g operating point
    r = 0.4
    gain = 0.6 * threshold_gain(CavityConfig(r=r)).gain
    sigma_n = min_variance_transcendental(gain, r, 2000).sigma2
    limit = sigma2_limit(gain, r)
    _, var_p, _ = output_covariance(comb_io(gain, 0.0, CavityConfig(r=r)))
    gap_formula = abs(sigma_n - limit)
    gap_comb = abs(sigma_n - var_p)
    report(5, gap_formula <= 1e-6 and gap_comb <= 1e-6,
           f"|sigma2(2000) - limit| = {gap_formula:.2e}, "
           f"|sigma2(2000) - comb var_p| = {gap_comb:.2e}")


def test_criterion_06_no_pairwise_entanglement():
    rng = np.random.default_rng(6)
    pairs = duan_certified = entangled = adjacent_entangled = 0
    false_positives = verdict_mismatches = 0
    worst_gap = 0.0
    for gain, r in below_threshold_draws(rng, 200, r_range=(0.2, 0.97),
                                         ratio_range=(0.02, 0.98)):
        cov = covariance(gain, r, 11)
        series = {sign: [series_covariance_entry(gain, r, sep, sign)
                         for sep in range(11)] for sign in (+1, -1)}
        for sep in range(1, 11):
            closed = pulse_pair_covariance(cov.v_plus[0, 0], cov.v_plus[0, sep],
                                           cov.v_minus[0, 0], cov.v_minus[0, sep])
            oracle = pulse_pair_covariance(series[+1][0], series[+1][sep],
                                           series[-1][0], series[-1][sep])
            assert np.all(np.isfinite(closed)) and np.all(np.isfinite(oracle))
            scale = np.sqrt(np.outer(np.diag(closed), np.diag(closed)))
            worst_gap = max(worst_gap, np.max(np.abs(closed - oracle) / scale))
            is_entangled = ppt_min_symplectic_eigenvalue(closed) < 0.5
            verdict_mismatches += is_entangled != (
                ppt_min_symplectic_eigenvalue(oracle) < 0.5)
            certified = duan_sum(gain, r, sep) < 2.0
            false_positives += certified and not is_entangled
            duan_certified += certified
            entangled += is_entangled
            adjacent_entangled += sep == 1 and is_entangled
            pairs += 1
    report(6, worst_gap <= 1e-8 and verdict_mismatches == 0
           and false_positives == 0 and adjacent_entangled == 200
           and duan_certified > 0,
           f"{duan_certified}/{pairs} pairs Duan-certified, {entangled} "
           f"entangled by PPT, {false_positives} Duan false positives, "
           f"{adjacent_entangled}/200 adjacent entangled, "
           f"{verdict_mismatches} closed/series verdict mismatches "
           f"(max gap {worst_gap:.1e})")


def test_criterion_07_purity_defect():
    rng = np.random.default_rng(7)
    worst = np.inf
    for gain, r in below_threshold_draws(rng, 200, ratio_range=(1e-3, 0.98)):
        assert gain > 1e-6
        cov = covariance(gain, r, 1)
        worst = min(worst, cov.v_plus[0, 0] * cov.v_minus[0, 0])
    report(7, worst > 0.25, f"min V+ V- product = {worst:.6f}")


def test_criterion_08_symplecticity_sweep():
    rng = np.random.default_rng(8)
    failures = 0
    for _ in range(1000):
        r = rng.uniform(0.2, 0.99)
        delta = rng.uniform(-np.pi, np.pi)
        cavity = CavityConfig(r=r, phase=delta + rng.uniform(-np.pi, np.pi))
        try:
            gth = threshold_gain(cavity).gain
        except Exception:
            continue
        gain = rng.uniform(0.0, 0.98) * min(gth, 2.0)
        theta = rng.uniform(-np.pi, np.pi)
        block = comb_io(gain, theta, cavity)
        if not check_symplectic(block, 1e-10):
            failures += 1
    report(8, failures == 0, f"{failures}/1000 blocks failed at 1e-10")


def test_criterion_09_double_gaussian_schmidt():
    a, b = 1.0, 0.25
    kernel = double_gaussian_kernel(a, b, omega_max=16.0, n_points=321)
    basis = schmidt_decompose(kernel, GAIN_CUTOFF)
    g0, mu = double_gaussian_law(a, b)
    predicted = g0 * mu ** np.arange(10)
    rel = np.abs(basis.gains[:10] / predicted - 1).max()
    gram = basis.gram_defect()
    residual = reconstruction_residual(basis, kernel)
    report(9, rel < 1e-6 and gram < 1e-10 and residual < 1e-8,
           f"spectrum rel err {rel:.2e}, gram {gram:.2e}, residual {residual:.2e}")


def test_criterion_10_metrology_curves():
    cavity = CavityConfig(r=FIG3_R)
    ratios = (0.5, 0.8, 0.95)
    start = time.perf_counter()
    curve = improvement_curve(cavity, ratios, 100)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    ok &= bool(np.all(curve.improvement >= 1.0 - 1e-9))
    ok &= bool(np.all(np.diff(curve.improvement, axis=1) >= -1e-12))
    gth = threshold_gain(cavity).gain
    for i, ratio in enumerate(ratios):
        n_star = int(curve.min_pulses_to_asymptote[i])
        at_star = 1.0 / np.sqrt(2.0 * min_variance_transcendental(
            ratio * gth, cavity.r, n_star).sigma2)
        ok &= at_star >= ASYMPTOTE_FRACTION * curve.asymptote[i]
    report(10, ok,
           f"sweep {elapsed:.2f} s, asymptotes {np.round(curve.asymptote, 3)}, "
           f"min N {curve.min_pulses_to_asymptote}")


def test_criterion_11_gaussian_qfi_oracle():
    # a p shift of sqrt 2 alpha' per unit delay is generated by
    # G = sqrt 2 alpha' x; a pure state's QFI is 4 Var(G) = 8 alpha'^2 Var(x)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        g = rng.uniform(0.05, 0.8)
        beta = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(0.5, 3.0)
        implemented = fisher_information(np.array([alpha]),
                                         np.array([[0.5 * np.exp(-2 * g)]]))
        oracle = 8.0 * alpha**2 * fock_variance_of_x(g, beta)
        worst = max(worst, abs(implemented / oracle - 1.0))
    report(11, worst <= 1e-8, f"max relative deviation {worst:.2e}")


def test_criterion_12_probe_round_trip(default_basis, default_cavity):
    # the probe envelope against amplitude * eigvec (x) the direct Fourier
    # sum of psi0 / (omega0 + w), on both resonant branches; the time step
    # weighs every sample alike, so it drops out of the relative L2 error
    from spopo import optimal_probe
    from conftest import OMEGA0
    grid = default_basis.grid
    pulse = direct_time_samples(
        grid, default_basis.modes_freq[:, 0] / (OMEGA0 + grid.omegas))
    worst = 0.0
    for r in (default_cavity.r, -default_cavity.r):
        probe = optimal_probe(default_basis, OMEGA0, r, n_pulses=4,
                              n_bar0=1e6, gain0=0.05)
        eigvec = min_variance_transcendental(0.05, r, 4).eigvec
        target = probe.amplitude * np.outer(eigvec, pulse).ravel()
        worst = max(worst, np.linalg.norm(probe.envelope - target)
                    / np.linalg.norm(target))
    report(12, worst <= 1e-8, f"relative L2 error {worst:.2e}")
