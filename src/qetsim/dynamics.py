"""Two-level transfer dynamics behind the R and Q operations.

A single excitation oscillates between an atomic ensemble and its
cavity mode (or between two coupled cavity modes).  On the
one-excitation subspace the Hamiltonian reduces to a 2x2 matrix; the
coupling sign is fixed so that a positive real coupling transfers
amplitude with a factor ``+i``, matching the transfer-gate matrices.
The closed-form solution and a fixed-step RK4 integrator give two
independent routes to the same coefficients.  The PHASE gate's Zeeman
evolution is diagonal and needs neither: tests keep it as a reference
next to the gate-block check that reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

DEFAULT_STEPS = 4096
STEP_HALVING_TOL = 1e-8


@dataclass(frozen=True)
class CavityAtomParams:
    """Effective coupling, the two coupled-level frequencies, and a duration."""

    kappa: complex
    omega_a: float
    omega_b: float
    t: float

    def __post_init__(self):
        values = (self.kappa.real, self.kappa.imag, self.omega_a,
                  self.omega_b, self.t)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("parameters must be finite")


def hamiltonian(p: CavityAtomParams) -> np.ndarray:
    """2x2 one-excitation Hamiltonian for the transfer dynamics."""
    return np.array([[p.omega_a, -p.kappa],
                     [-np.conj(p.kappa), p.omega_b]], dtype=complex)


def rabi_coefficients(alpha: complex, beta: complex,
                      p: CavityAtomParams) -> tuple[complex, complex]:
    """Closed-form coefficients at time ``t`` from initial ``(alpha, beta)``.

    General detuned case; at resonance it reduces to
    ``c1 = e^{-i w t}(alpha cos(|k|t) + i beta sin(|k|t))`` and
    ``c2 = e^{-i w t}(beta cos(|k|t) + i alpha sin(|k|t))`` for real
    positive coupling, so ``|k|t = pi/2`` is complete transfer.
    """
    delta = p.omega_a - p.omega_b
    sigma = 0.5 * (p.omega_a + p.omega_b)
    omega = math.sqrt(0.25 * delta * delta + abs(p.kappa) ** 2)
    if omega == 0.0:
        cos, sinc = 1.0, p.t
    else:
        cos = math.cos(omega * p.t)
        sinc = math.sin(omega * p.t) / omega
    frame = complex(np.exp(-1j * sigma * p.t))
    c1 = frame * (alpha * cos - 1j * sinc * (0.5 * delta * alpha - p.kappa * beta))
    c2 = frame * (beta * cos - 1j * sinc * (-np.conj(p.kappa) * alpha
                                            - 0.5 * delta * beta))
    return c1, c2


def _rk4_step_matrix(h: np.ndarray, dt: float) -> np.ndarray:
    # degree-4 Taylor step of exp(-i H dt); composing it over the grid is
    # exactly classic RK4 for this linear autonomous system
    a = -1j * dt * h
    m = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in (1, 2, 3, 4):
        term = term @ a / k
        m = m + term
    return m


def integrate_two_level(alpha: complex, beta: complex, p: CavityAtomParams,
                        steps: int = DEFAULT_STEPS) -> tuple[complex, complex]:
    """Numerically evolved coefficients; independent of the closed form.

    Integrates with ``steps`` and ``2 * steps`` RK4 steps and requires
    the two answers to agree within ``STEP_HALVING_TOL``, returning the
    finer one.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    h = hamiltonian(p)
    psi0 = np.array([alpha, beta], dtype=complex)
    coarse = np.linalg.matrix_power(_rk4_step_matrix(h, p.t / steps), steps) @ psi0
    fine = np.linalg.matrix_power(
        _rk4_step_matrix(h, p.t / (2 * steps)), 2 * steps) @ psi0
    drift = float(np.max(np.abs(fine - coarse)))
    if drift >= STEP_HALVING_TOL:
        raise ConvergenceError(
            f"step-halving changed the result by {drift:.3e}; "
            f"increase steps (got {steps})")
    return complex(fine[0]), complex(fine[1])
