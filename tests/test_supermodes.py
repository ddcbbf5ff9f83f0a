import numpy as np
import pytest

import spopo.supermodes
from spopo import (FrequencyGrid, JointKernel, ValidationError,
                   build_kernel, schmidt_decompose, takagi)

from spopo.supermodes import SupermodeBasis, kept_count, takagi_values

from conftest import GAIN_CUTOFF, N_POINTS, T0, make_pump
from oracles import (double_gaussian_kernel, double_gaussian_law,
                     reconstruction_residual)


def symmetric_case(name):
    """Real symmetric input of the Takagi tests; a number seeds a random
    10 x 10 matrix.  Rank 3 of 12 and the zero row leave exact zero values,
    and the double-Gaussian kernel numerically zero ones."""
    if name == "double-gaussian-301":
        return double_gaussian_kernel(1.0, 0.25).matrix
    if name == "degenerate-4":
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 1.0
        return m
    rng = np.random.default_rng(int(name) if name.isdigit() else 6)
    n = {"random-60": 60, "degenerate-3x20": 60, "rank-3-of-12": 12,
         "zero-row": 12}.get(name, 10)
    m = rng.standard_normal((n, n))
    if name == "degenerate-3x20":
        q = np.linalg.qr(m)[0]
        return (q * np.repeat([3.0, 2.0, 1.0], 20)) @ q.T
    if name == "rank-3-of-12":
        return m[:, :3] @ m[:, :3].T
    m = m + m.T
    if name == "zero-row":
        m[4, :] = m[:, 4] = 0.0
    return m


def fix_mode_signs_loop(modes):
    """Per-column reference of the sign gauge: at the max-|.| sample make Re
    positive, or Im positive when the sample is purely imaginary."""
    out = modes.copy()
    for n in range(out.shape[1]):
        col = out[:, n]
        z = col[np.argmax(np.abs(col))]
        if abs(z.real) > 1e-12 * abs(z):
            if z.real < 0:
                out[:, n] = -col
        elif z.imag < 0:
            out[:, n] = -col
    return out


def modes_by_complex_chain(matrix, weight):
    """Reference for schmidt_decompose on a real kernel: Takagi modes as
    eigenvectors times phase 1 or i, sign gauge, then division by sqrt(w)."""
    lam, u = np.linalg.eigh(matrix)
    order = np.argsort(np.abs(lam))[::-1]
    lam, u = lam[order], u[:, order]
    u = u * np.where(lam >= 0, 1.0 + 0.0j, 1.0j)
    return fix_mode_signs_loop(u) / np.sqrt(weight)


def extended_precision_synthesis(basis, freq_samples):
    """sum_i e^{i t_j w_i} f_i dw/2pi in np.clongdouble on a comb-aligned
    grid, with the exact phase 2 pi ((j - h)(i - h) mod m) / m."""
    m = basis.grid.n_points
    offsets = np.arange(m) - (m - 1) // 2
    numerator = np.outer(offsets, offsets) % m
    two_pi = 8 * np.arctan(np.longdouble(1))
    synth = np.exp(1j * (two_pi * numerator.astype(np.longdouble) / m))
    return synth @ (np.asarray(freq_samples).astype(np.clongdouble)
                    * np.longdouble(basis.grid.weight))


class TestTakagi:
    def test_rank_one_gaussian(self):
        grid = FrequencyGrid(n_points=201, rep_period=20.0 * np.pi)
        psi = np.exp(-grid.omegas**2 / 2.0)
        psi = psi / np.linalg.norm(psi)
        gain = 0.37
        vals, u = takagi(gain * np.outer(psi, psi))
        assert vals[0] == pytest.approx(gain, rel=1e-12)
        assert np.all(vals[1:] < 1e-13)
        assert abs(np.vdot(u[:, 0], psi)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_kernel(self):
        vals, u = takagi(np.zeros((11, 11)))
        assert not np.any(vals)
        np.testing.assert_allclose(u, np.eye(11))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_real_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((12, 12))
        m = m + m.T
        vals, u = takagi(m)
        np.testing.assert_allclose((u * vals) @ u.T, m, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(12), atol=1e-12)
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("case", [
        "3", "4", "5", "random-60", "degenerate-4", "degenerate-3x20",
        "rank-3-of-12", "zero-row", "double-gaussian-301"])
    def test_symmetric_cases(self, case):
        m = symmetric_case(case)
        n = m.shape[0]
        vals, u = takagi(m)
        np.testing.assert_allclose((u * vals) @ u.T, m, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(m).max()))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), rtol=0,
                                   atol=1e-12)
        assert np.all(vals >= 0) and np.all(np.diff(vals) <= 0)
        assert np.abs(vals - np.linalg.svd(m, compute_uv=False)).max() \
            <= 1e-14 * vals[0]

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            takagi(np.array([[0.0, 1.0], [0.5, 0.0]]))
        # inf - inf is NaN, which no tolerance test flags
        for bad in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="non-finite"):
                takagi(np.array([[0.0, bad], [bad, 0.0]]))
        for shape in ((), (3, 3, 3)):
            with pytest.raises(ValidationError, match="square"):
                takagi(np.ones(shape))

    def test_complex_input_refused(self, default_kernel):
        # the joint kernel is real; a complex array is refused before the
        # symmetry and grid checks, even with a zero imaginary part, so no
        # complex matrix reaches takagi_values
        grid = default_kernel.grid
        asymmetric = np.array([[0.0, 1j], [0.0, 0.0]])
        for m in (default_kernel.matrix + 0j, symmetric_case("3") * (1 + 2j),
                  asymmetric):
            with pytest.raises(ValidationError, match="real"):
                takagi(m)
            with pytest.raises(ValidationError, match="real"):
                JointKernel(matrix=m, grid=grid)

    def test_joint_kernel_is_not_checked_again(self, default_kernel,
                                               monkeypatch):
        # a JointKernel was checked on construction; a bare array is checked
        calls = []
        check = spopo.supermodes.check_symmetric
        monkeypatch.setattr(spopo.supermodes, "check_symmetric",
                            lambda m, name: calls.append(name) or check(m, name))
        basis = schmidt_decompose(default_kernel, GAIN_CUTOFF, n_modes=2)
        vals, u = takagi(default_kernel, 2)
        assert calls == []
        assert np.array_equal(vals, basis.gains)
        expected = takagi(default_kernel.matrix, 2)
        assert calls == ["takagi matrix"]
        assert np.array_equal(vals, expected[0])
        assert np.array_equal(u, expected[1])

    def test_sign_gauge_matches_per_column_loop(self, default_kernel):
        # takagi's U is already in the gauge, and columns negated at random
        # are gauged back to it; compared bytewise (signed zeros).  The
        # kernel's modes carry phase 1 and phase i (eigenvalues of both signs)
        real = default_kernel.matrix
        lam = np.linalg.eigvalsh(real)
        assert lam.min() < 0 < lam.max()
        rng = np.random.default_rng(9)
        for m in (real, symmetric_case("random-60")):
            u = takagi(m)[1]
            assert u.tobytes() == fix_mode_signs_loop(u).tobytes()
            flipped = u.copy()
            np.negative(flipped, out=flipped,
                        where=rng.random(u.shape[1]) < 0.5)
            assert u.tobytes() == fix_mode_signs_loop(flipped).tobytes()


def spectrum_matrix(values, seed=5):
    """Real symmetric Q diag(values) Q^T for a seeded random orthogonal Q."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    m = (q * values) @ q.T
    return (m + m.T) / 2.0


@pytest.fixture
def full_eigh_calls(monkeypatch):
    """Row counts of the np.linalg.eigh calls on matrices of 100+ rows: the
    full factorisations; Lanczos only diagonalises its small tridiagonal."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.shape(a)[0] >= 100:
            calls.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture(scope="module")
def full_factorisations(default_pump, default_crystal):
    """Default-physics kernels at 171 and 1361 points with their full Takagi
    factorisations."""
    out = {}
    for n_points in (171, 1361):
        matrix = build_kernel(n_points, default_pump, default_crystal).matrix
        out[n_points] = (matrix, *takagi(matrix))
    return out


class TestTopModes:
    @pytest.mark.parametrize("k", [1, 4, 8])
    @pytest.mark.parametrize("n_points", [171, 1361])
    def test_matches_full_takagi(self, full_factorisations, full_eigh_calls,
                                 n_points, k):
        matrix, gains, modes = full_factorisations[n_points]
        g0 = gains[0]
        top, u = takagi(matrix, k)
        assert not full_eigh_calls
        assert top.shape == (k,) and u.shape == (n_points, k)
        assert np.abs(top - gains[:k]).max() <= 1e-14 * g0
        overlap = np.abs(np.sum(u.conj() * modes[:, :k], axis=0))
        assert np.all(1.0 - overlap <= 1e-13)
        # the same gauge: mode samples agree, signs included
        assert np.abs(u - modes[:, :k]).max() <= 1e-12
        # M conj(u_n) = g_n u_n is the Takagi form of M x = lam x
        residual = np.linalg.norm(matrix @ u.conj() - u * top, axis=0)
        assert np.all(residual <= 1e-12 * g0)

    @pytest.mark.parametrize("n_points", [171, 1361])
    def test_top_gain_keeps_its_bits_up_to_four_modes(
            self, full_factorisations, full_eigh_calls, n_points):
        # every k <= 4 runs the same 40 Lanczos steps, so g0 is the k = 1
        # value bit for bit: an energy pump's g0 in the CLI comes from a
        # basis of k = n_modes_dump
        matrix = full_factorisations[n_points][0]
        g0 = takagi(matrix, 1)[0][0]
        for k in (2, 3, 4):
            assert takagi(matrix, k)[0][0].tobytes() == g0.tobytes(), k
        assert not full_eigh_calls

    def test_rerun_is_bitwise_identical(self, full_factorisations):
        matrix = full_factorisations[171][0]
        first, second = takagi(matrix, 4), takagi(matrix, 4)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    @pytest.mark.parametrize("values", [
        np.r_[1.0, 1.0, 0.8 ** np.arange(2, 200)],
        np.r_[1.0, -1.0, 0.8 ** np.arange(2, 200)],
        np.linspace(1.0, 0.9, 200)], ids=["repeated", "plus-minus", "flat"])
    def test_fallback_to_full_eigh(self, full_eigh_calls, values):
        # a repeated top gain, or a flat spectrum 40 steps cannot resolve
        matrix = spectrum_matrix(values)
        gains, modes = takagi(matrix, 1)
        assert full_eigh_calls == [200]
        full = takagi(matrix)
        assert gains.tobytes() == full[0][:1].tobytes()
        assert modes.tobytes() == full[1][:, :1].tobytes()

    def test_resolved_spectrum_takes_no_full_eigh(self, full_eigh_calls):
        matrix = spectrum_matrix(np.r_[1.0, 0.5, 0.5, 0.2 * 0.8 ** np.arange(197)])
        takagi(matrix, 1)
        assert not full_eigh_calls
        # the second mode is half of a repeated gain
        takagi(matrix, 2)
        assert full_eigh_calls == [200]

    def test_overflowing_norms_leave_it_to_eigh(self, default_kernel,
                                                full_eigh_calls):
        # near the float range the Lanczos norms overflow: eigh, which
        # scales the matrix, decides, and numpy does not warn
        matrix = default_kernel.matrix
        big = matrix * (1e300 / np.abs(matrix).max())
        gains, u = takagi(big, 4)
        full_gains, full_u = takagi(big)
        assert full_eigh_calls == [171, 171]
        assert np.array_equal(gains, full_gains[:4])
        assert np.array_equal(u, full_u[:, :4])

    def test_start_vector_reaches_both_parities(self, full_eigh_calls):
        # an exactly parity-symmetric kernel whose modes alternate in parity
        # and in the sign of their eigenvalue (phase 1, then i); its slow
        # decay (mu = 0.957) leaves an even start vector, which sees the odd
        # modes through rounding noise alone, short of the residual tolerance
        kernel = double_gaussian_kernel(1.0, 0.0005, omega_max=40.0,
                                        n_points=601).matrix
        matrix = (kernel + kernel[::-1, ::-1]) / 2.0
        gains, u = takagi(matrix, 6)
        assert not full_eigh_calls
        assert np.array_equal(np.any(u.real != 0.0, axis=0), [True, False] * 3)
        g0, mu = double_gaussian_law(1.0, 0.0005)
        np.testing.assert_allclose(gains, g0 * mu ** np.arange(6), rtol=1e-12)

    @pytest.mark.parametrize("n", [12, 200])
    def test_degenerate_inputs(self, n, full_eigh_calls):
        # 200 rows run Lanczos: on the identity the Krylov space is invariant
        # after one step, and on rank 3 after four
        rng = np.random.default_rng(3)
        factor = rng.standard_normal((n, 3))
        rank3 = factor @ factor.T
        if n == 200:
            for k in (1, 2, 3):
                takagi(rank3, k)
            assert not full_eigh_calls
        for matrix in (np.zeros((n, n)), np.eye(n), rank3,
                       symmetric_case("rank-3-of-12")):
            for k in (1, 3, 4):
                gains, u = takagi(matrix, k)
                assert np.all(np.isfinite(gains)) and np.all(np.isfinite(u))
                assert u.shape == (matrix.shape[0], k)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(k),
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(gains, takagi(matrix)[0][:k],
                                           rtol=0, atol=1e-12 * max(1.0, gains[0]))

    def test_n_modes_out_of_range(self):
        for k in (0, 13):
            with pytest.raises(ValidationError, match="n_modes"):
                takagi(np.eye(12), k)

    def test_truncated_basis(self, default_kernel, default_basis):
        basis = schmidt_decompose(default_kernel, 0.9, n_modes=4)
        assert basis.gains.shape == (4,)
        assert basis.modes_freq.shape == (default_kernel.grid.n_points, 4)
        # n_kept counts g_n >= 0.9 g_0 among the four
        assert basis.n_kept == kept_count(default_basis.gains[:4], 0.9) == 3
        assert np.abs(basis.modes_freq - default_basis.modes_freq[:, :4]).max() \
            <= 1e-12 * np.abs(default_basis.modes_freq[:, :4]).max()
        # a rank-4 approximation of a kernel with many significant gains
        assert reconstruction_residual(basis, default_kernel) > 0.1


class TestSchmidtDecompose:
    def test_basis_from_stored_modes(self, default_kernel, default_basis):
        # gains and modes alone rebuild the basis: it equals the decomposed
        # one, and handed the kernel it gives the same residual, bit for bit
        basis = SupermodeBasis.from_modes(
            default_basis.gains, default_basis.modes_freq, default_kernel.grid,
            GAIN_CUTOFF)
        assert basis.n_kept == default_basis.n_kept
        assert basis.grid == default_basis.grid
        assert basis.time_grid.tobytes() == default_basis.time_grid.tobytes()
        assert basis.time_samples(basis.modes_freq).tobytes() \
            == default_basis.time_samples(default_basis.modes_freq).tobytes()
        assert basis.gram_defect() == default_basis.gram_defect()
        assert reconstruction_residual(basis, default_kernel) \
            == reconstruction_residual(default_basis, default_kernel)

    def test_residual_refuses_kernel_on_another_grid(self, default_basis,
                                                     default_pump,
                                                     default_crystal):
        other = build_kernel(N_POINTS + 2, default_pump, default_crystal)
        with pytest.raises(ValidationError, match="another grid"):
            reconstruction_residual(default_basis, other)

    @pytest.mark.parametrize("cutoff", [np.nan, -1e-9, 1.0 + 1e-9, 2.0,
                                        np.inf])
    def test_cutoff_outside_unit_interval_refused(self, cutoff, default_kernel,
                                                  default_basis):
        # past 1 the basis would keep no mode, not even mode 0
        gains, modes = default_basis.gains, default_basis.modes_freq
        for call in (lambda: kept_count(gains, cutoff),
                     lambda: SupermodeBasis.from_modes(gains, modes,
                                                       default_basis.grid,
                                                       cutoff),
                     lambda: schmidt_decompose(default_kernel, cutoff,
                                               n_modes=2)):
            with pytest.raises(ValidationError, match="gain_cutoff"):
                call()

    def test_basis_invariants(self, default_kernel, default_basis):
        assert default_basis.gains[0] == default_basis.gains.max()
        assert np.all(np.diff(default_basis.gains) <= 1e-14)
        assert default_basis.gram_defect() < 1e-10
        assert reconstruction_residual(default_basis, default_kernel) < 1e-8
        assert 5 < default_basis.n_kept < default_basis.gains.size

    def test_zero_kernel_keeps_nothing(self, default_crystal):
        kernel = build_kernel(N_POINTS, make_pump(pulse_energy=0.0),
                              default_crystal)
        basis = schmidt_decompose(kernel, GAIN_CUTOFF)
        assert basis.n_kept == 0
        assert not np.any(basis.gains)
        # the empty Gram matrix is the empty identity
        assert basis.gram_defect() == 0.0

    def test_double_gaussian_geometric_spectrum(self):
        kernel = double_gaussian_kernel(1.0, 0.25)
        basis = schmidt_decompose(kernel, GAIN_CUTOFF)
        g0, mu = double_gaussian_law(1.0, 0.25)
        predicted = g0 * mu ** np.arange(10)
        np.testing.assert_allclose(basis.gains[:10], predicted, rtol=1e-8)

    def test_time_samples_match_direct_sum(self, default_basis):
        basis = default_basis
        m = basis.grid.n_points
        tau = (np.arange(m) + 0.5) * T0 / m - T0 / 2.0
        synth = np.exp(1j * np.outer(tau, basis.grid.omegas)) * basis.grid.weight
        expected = synth @ basis.modes_freq
        # FFT against the direct sum, whose float phases carry ~1e-14 of max
        # error (measured gap: 3.0e-14 of max)
        assert np.abs(basis.time_samples(basis.modes_freq) - expected).max() \
            <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n_points", [171, 341])
    def test_fft_synthesis_matches_extended_precision(self, n_points,
                                                      default_pump,
                                                      default_crystal):
        basis = schmidt_decompose(
            build_kernel(n_points, default_pump, default_crystal), GAIN_CUTOFF)
        grid = basis.grid
        probe = basis.modes_freq[:, 0] / (2.356e15 + grid.omegas)
        for samples in (basis.modes_freq, probe):
            reference = extended_precision_synthesis(basis, samples)
            error = np.abs(basis.time_samples(samples) - reference)
            assert np.all(error.max(axis=0)
                          <= 2e-15 * np.abs(reference).max(axis=0))

    @pytest.mark.parametrize("n_points", [171, 1361])
    def test_takagi_values_match_takagi(self, n_points, default_pump,
                                        default_crystal):
        kernel = build_kernel(n_points, default_pump, default_crystal)
        values = takagi_values(kernel)
        assert np.abs(values - takagi(kernel.matrix)[0]).max() \
            <= 1e-14 * values[0]
        assert kept_count(values, GAIN_CUTOFF) \
            == schmidt_decompose(kernel, GAIN_CUTOFF).n_kept

    def test_one_pass_modes_match_complex_chain(self, default_pump,
                                                default_crystal):
        # equal values, nonzero parts equal bit for bit, zeros in the same
        # places; the sign of a zero is not pinned
        kernels = [build_kernel(n, default_pump, default_crystal)
                   for n in (171, 1361)]
        kernels.append(double_gaussian_kernel(1.0, 0.25))
        # degenerate 2x2 blocks give eigenvectors whose largest |x| is a
        # +/- tie; the zero row gives exact zeros of both signs
        small = FrequencyGrid(n_points=5, rep_period=4.0 * np.pi)
        ties = np.zeros((5, 5))
        ties[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        ties[2:4, 2:4] = [[0.0, 1.0], [1.0, 0.0]]
        ties[4, 4] = 0.5
        noise = np.random.default_rng(4).standard_normal((5, 5))
        noise[2] = noise[:, 2] = 0.0
        kernels += [JointKernel(matrix=ties, grid=small),
                    JointKernel(matrix=noise + noise.T, grid=small)]
        for kernel in kernels:
            modes = schmidt_decompose(kernel, GAIN_CUTOFF).modes_freq
            reference = modes_by_complex_chain(kernel.matrix, kernel.grid.weight)
            assert modes.dtype == reference.dtype
            assert np.array_equal(modes, reference)
            parts, expected = modes.view(float), reference.view(float)
            nonzero = expected != 0.0
            assert np.array_equal(parts != 0.0, nonzero)
            assert np.array_equal(parts[nonzero].view(np.uint64),
                                  expected[nonzero].view(np.uint64))

    def test_time_modes_orthonormal(self, default_basis):
        n = default_basis.n_kept
        grid = default_basis.grid
        modes = default_basis.time_samples(default_basis.modes_freq)[:, :n]
        gram = modes.conj().T @ modes * (grid.rep_period / grid.n_points)
        assert np.abs(gram - np.eye(n)).max() < 1e-10


class TestCompleteness:
    def test_band_limited_reconstruction(self, default_basis):
        """Appendix-style completeness surrogate: comb projections on a full
        theta grid reconstruct a random band-limited train to 1e-6."""
        basis = default_basis
        periods = 8
        phase = 0.35
        rng = np.random.default_rng(11)
        w = basis.grid.omegas
        envelope = np.exp(-w**2 / (2 * (basis.grid.omega_max / 7.0) ** 2))
        spectra = (rng.standard_normal((periods, w.size))
                   + 1j * rng.standard_normal((periods, w.size))) * envelope
        synth = np.exp(1j * np.outer(basis.time_grid, w)) * basis.grid.weight
        signal = (synth @ spectra.T).T  # (periods, samples) per-period pulses

        # per-period overlaps with every supermode, (modes, periods)
        modes_time = basis.time_samples(basis.modes_freq)
        dt = basis.grid.rep_period / basis.grid.n_points
        proj = modes_time.conj().T @ signal.T * dt

        thetas = 2 * np.pi * np.arange(periods) / periods - np.pi
        phases = np.exp(-1j * np.outer(thetas + phase, np.arange(periods)))
        comb_amp = (proj @ phases.T) / np.sqrt(2 * np.pi)

        rebuilt = np.empty_like(signal)
        for k in range(periods):
            back = np.exp(1j * k * (thetas + phase))
            coeff = (comb_amp * back[None, :]).sum(axis=1) \
                / np.sqrt(2 * np.pi) * (2 * np.pi / periods)
            rebuilt[k] = modes_time @ coeff
        rel_err = np.linalg.norm(rebuilt - signal) / np.linalg.norm(signal)
        assert rel_err < 1e-6
