import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.dynamics import (CavityAtomParams, integrate_two_level,
                             rabi_coefficients)
from qetsim.errors import ConvergenceError
from qetsim.gates import phase_matrix, qet_matrix


@dataclass(frozen=True)
class ZeemanParams:
    """Magnetic-field phase knobs: base frequency, Lande factor, magneton, field, duration."""

    omega_0: float
    lande_g: float
    mu: float
    B: float
    t: float

    def __post_init__(self):
        values = (self.omega_0, self.lande_g, self.mu, self.B, self.t)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("parameters must be finite")

    @property
    def theta(self) -> float:
        """Relative phase accumulated between the two spin states."""
        return self.lande_g * self.mu * self.B * self.t


def zeeman_phase(c1: complex, c2: complex,
                 p: ZeemanParams) -> tuple[complex, complex]:
    """Diagonal evolution under a magnetic field.

    The two spin states rotate at ``omega_0 +- g mu B / 2``; the moduli
    are untouched and the relative phase accumulated is exactly
    ``p.theta``.
    """
    omega_a = p.omega_0 + 0.5 * p.lande_g * p.mu * p.B
    omega_b = p.omega_0 - 0.5 * p.lande_g * p.mu * p.B
    return (c1 * complex(np.exp(-1j * omega_a * p.t)),
            c2 * complex(np.exp(-1j * omega_b * p.t)))


def _random_state(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def test_time_zero_returns_initial_conditions():
    p = CavityAtomParams(kappa=1.3, omega_a=0.4, omega_b=-0.2, t=0.0)
    assert rabi_coefficients(0.6, 0.8, p) == (0.6, 0.8)


def test_resonant_complete_transfer():
    kappa = 2.1
    p = CavityAtomParams(kappa, omega_a=1.0, omega_b=1.0,
                         t=math.pi / (2 * kappa))
    c1, c2 = rabi_coefficients(1.0, 0.0, p)
    assert abs(abs(c2) - 1) < 1e-9
    assert abs(c1) < 1e-9
    # the transferred component carries the +i factor in the rotating frame
    assert abs(c2 * np.exp(1j * 1.0 * p.t) - 1j) < 1e-12


def test_detuned_maximum_found_by_integration_scan():
    kappa, delta = 0.9, 1.4
    omega = math.sqrt(0.25 * delta ** 2 + kappa ** 2)
    lo, hi = 0.0, math.pi / omega
    best_t = 0.0
    for _ in range(4):
        grid = np.linspace(lo, hi, 60)
        values = []
        for t in grid:
            p = CavityAtomParams(kappa, delta / 2, -delta / 2, float(t))
            values.append(abs(integrate_two_level(1.0, 0.0, p, steps=512)[1]) ** 2)
        best = int(np.argmax(values))
        best_t = float(grid[best])
        width = grid[1] - grid[0]
        lo, hi = max(0.0, best_t - width), best_t + width
    p = CavityAtomParams(kappa, delta / 2, -delta / 2, best_t)
    peak = abs(integrate_two_level(1.0, 0.0, p)[1]) ** 2
    expected = 4 * kappa ** 2 / (delta ** 2 + 4 * kappa ** 2)
    assert abs(peak - expected) < 1e-6


def test_zero_coupling_is_pure_phase():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, b = _random_state(rng)
        p = CavityAtomParams(0.0, rng.uniform(-2, 2), rng.uniform(-2, 2),
                             rng.uniform(0, 4))
        c1, c2 = integrate_two_level(a, b, p)
        assert abs(abs(c1) - abs(a)) < 1e-9
        assert abs(abs(c2) - abs(b)) < 1e-9


def test_integration_matches_closed_form_on_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = _random_state(rng)
        p = CavityAtomParams(
            kappa=complex(rng.uniform(0, 2), rng.uniform(-1, 1)),
            omega_a=rng.uniform(-2, 2), omega_b=rng.uniform(-2, 2),
            t=rng.uniform(0, 5))
        closed = rabi_coefficients(a, b, p)
        numeric = integrate_two_level(a, b, p)
        assert abs(closed[0] - numeric[0]) < 1e-6
        assert abs(closed[1] - numeric[1]) < 1e-6


def test_integration_conserves_norm():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = _random_state(rng)
        p = CavityAtomParams(rng.uniform(0, 2), rng.uniform(-2, 2),
                             rng.uniform(-2, 2), rng.uniform(0, 5))
        c1, c2 = integrate_two_level(a, b, p)
        assert abs(abs(c1) ** 2 + abs(c2) ** 2 - 1) < 1e-9


def test_integration_step_halving_guard():
    p = CavityAtomParams(kappa=5.0, omega_a=40.0, omega_b=-40.0, t=50.0)
    with pytest.raises(ConvergenceError):
        integrate_two_level(1.0, 0.0, p, steps=3)


def test_zeeman_zero_field_common_phase():
    p = ZeemanParams(omega_0=1.7, lande_g=2.0, mu=0.9, B=0.0, t=2.3)
    c1, c2 = zeeman_phase(0.6, 0.8, p)
    assert abs(c1 / 0.6 - c2 / 0.8) < 1e-12
    assert p.theta == 0


def test_zeeman_pi_relative_phase():
    p = ZeemanParams(omega_0=0.0, lande_g=2.0, mu=1.0, B=0.5, t=math.pi)
    assert abs(p.theta - math.pi) < 1e-12
    c1, c2 = zeeman_phase(1 / math.sqrt(2), 1 / math.sqrt(2), p)
    relative = c1 / c2
    assert abs(relative - np.exp(-1j * math.pi)) < 1e-12


def test_zeeman_preserves_moduli():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = _random_state(rng)
        p = ZeemanParams(*rng.uniform(-2, 2, size=5))
        c1, c2 = zeeman_phase(a, b, p)
        assert abs(abs(c1) - abs(a)) < 1e-12
        assert abs(abs(c2) - abs(b)) < 1e-12


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        CavityAtomParams(float("inf"), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ZeemanParams(0.0, float("nan"), 1.0, 1.0, 1.0)


_ANGLE = st.floats(-4 * math.pi, 4 * math.pi)
_TURN = st.floats(0.0, 2 * math.pi)


@settings(max_examples=200)
@given(theta=_ANGLE, phi=_ANGLE, mix=_TURN, phase_a=_TURN, phase_b=_TURN)
def test_gate_blocks_follow_from_the_dynamics(theta, phi, mix, phase_a, phase_b):
    # the chain from cavity physics to the ISA: on the single-excitation
    # pair (|01>, |10>), QET(theta) is the resonant transfer with kappa = 1
    # for t = theta / 2, and PHASE(theta, phi) is the Zeeman evolution with
    # g mu B t = theta and omega_0 t = -phi / 2
    alpha = math.cos(mix) * np.exp(1j * phase_a)
    beta = math.sin(mix) * np.exp(1j * phase_b)
    pair = np.array([alpha, beta])

    transfer = qet_matrix(theta).entries[1:3, 1:3] @ pair
    rabi = rabi_coefficients(alpha, beta, CavityAtomParams(
        kappa=1.0, omega_a=0.0, omega_b=0.0, t=theta / 2))
    assert np.max(np.abs(transfer - rabi)) < 1e-12

    phased = phase_matrix(theta, phi).entries[1:3, 1:3] @ pair
    zeeman = zeeman_phase(alpha, beta, ZeemanParams(
        omega_0=-phi / 2, lande_g=1.0, mu=1.0, B=theta, t=1.0))
    assert np.max(np.abs(phased - zeeman)) < 1e-12
