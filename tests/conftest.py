import numpy as np
import pytest

from spopo import (CavityConfig, CrystalConfig, FrequencyGrid, PumpConfig,
                   build_kernel, schmidt_decompose)

# canonical test scenario: 800 nm carrier, 100 fs pulses, 250 GHz rep rate
# (T0/tau_p = 40 keeps both time scales resolvable on one grid)
OMEGA0 = 2.356e15
TAU_P = 1.0e-13
T0 = 4.0e-12
N_POINTS = 171
#: the config's default gain cutoff: modes with g_n >= 1e-6 g_0 are kept
GAIN_CUTOFF = 1e-6
#: speed of light in vacuum (m/s), exact in SI
C_LIGHT = 299792458.0

KS0 = 1.8 * OMEGA0 / C_LIGHT
SIGNAL_DISPERSION = (KS0, 1.85 / C_LIGHT, 7e-26, 0.0)
PUMP_DISPERSION = (2.0 * KS0, 1.95 / C_LIGHT, 2e-25, 0.0)


def make_crystal(**overrides) -> CrystalConfig:
    params = dict(length=5e-4, d_eff=2e-12, n0=1.8, a_eff=1e-9, omega0=OMEGA0,
                  signal_dispersion=SIGNAL_DISPERSION,
                  pump_dispersion=PUMP_DISPERSION)
    params.update(overrides)
    return CrystalConfig(**params)


def make_pump(**overrides) -> PumpConfig:
    params = dict(pulse_energy=1e-9, tau_p=TAU_P, rep_period=T0)
    params.update(overrides)
    return PumpConfig(**params)


@pytest.fixture(scope="session")
def default_grid() -> FrequencyGrid:
    return FrequencyGrid(N_POINTS, T0)


@pytest.fixture(scope="session")
def default_pump() -> PumpConfig:
    return make_pump()


@pytest.fixture(scope="session")
def default_crystal() -> CrystalConfig:
    return make_crystal()


@pytest.fixture(scope="session")
def default_kernel(default_pump, default_crystal):
    return build_kernel(N_POINTS, default_pump, default_crystal)


@pytest.fixture(scope="session")
def default_basis(default_kernel):
    return schmidt_decompose(default_kernel, GAIN_CUTOFF)


@pytest.fixture(scope="session")
def default_cavity() -> CavityConfig:
    return CavityConfig(r=0.8894)


def below_threshold_draws(rng: np.random.Generator, count: int,
                          r_range=(0.3, 0.95), ratio_range=(0.05, 0.9)):
    """Seeded (gain, r) pairs strictly below the resonant threshold g = -ln r."""
    rs = rng.uniform(*r_range, size=count)
    ratios = rng.uniform(*ratio_range, size=count)
    return [(float(ratio * -np.log(r)), float(r)) for ratio, r in zip(ratios, rs)]
