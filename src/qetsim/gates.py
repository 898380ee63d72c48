"""Transistor gate matrices.

All three gates conserve excitation number: every nonzero entry connects
basis states of equal Hamming weight, so population can only move between
``|01>`` and ``|10>``-type configurations.  Their entries are read-only,
so a gate built once can serve every shot of a program.
"""

import functools
import math

import numpy as np

from .statevector import LocalUnitary


def exact_turns(theta: float) -> int | None:
    """``theta / pi`` where the transfer matrix is exact, else None.

    The exact values cover one period of the matrix either side of 0
    (``|theta| <= 4 pi``), where an integer quotient ``theta / pi`` puts
    ``theta`` within rounding of ``k * pi``.  A transfer at such an angle
    maps each basis state to one basis state, so it never grows the
    support of a sparse register.
    """
    turns = theta / math.pi
    if turns.is_integer() and abs(turns) <= 4:
        return int(turns)
    return None


def _half_angle(theta: float) -> tuple[float, float]:
    """``cos(theta/2)``, ``sin(theta/2)``, exact at whole multiples of pi.

    ``cos(math.pi / 2)`` is 6e-17, not 0: without exact values a full
    transfer would leave that much amplitude behind, and a sparse
    register would carry every such remnant as one more nonzero entry.
    """
    turns = exact_turns(theta)
    if turns is not None:
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[turns % 4]
    return np.cos(theta / 2), np.sin(theta / 2)


def _frozen(dims: tuple[int, ...], m: np.ndarray) -> LocalUnitary:
    m.flags.writeable = False
    return LocalUnitary(dims, m)


# The factor a fully transferred component picks up, per convention of
# the protocol oracle: ``physical`` is the ``i`` of ``qet_matrix(pi)``,
# ``ideal`` a plain permutation.
SWAP_FACTOR = {"ideal": 1.0, "physical": 1j}


def qet_matrix(theta: float) -> LocalUnitary:
    """Partial excitation transfer between two cells.

    Rotates the single-excitation pair ``|01>``, ``|10>`` by ``theta``;
    the transferred component picks up a factor ``i`` at full transfer
    (``theta = pi``), where the block is exactly ``[[0, i], [i, 0]]``.
    """
    c, s = _half_angle(theta)
    m = np.eye(4, dtype=complex)
    m[1, 1] = c
    m[1, 2] = 1j * s
    m[2, 1] = 1j * s
    m[2, 2] = c
    return _frozen((2, 2), m)


def phase_matrix(theta: float, phi: float) -> LocalUnitary:
    """Relative phase ``theta`` between ``|01>`` and ``|10>``.

    ``phi`` shifts both single-excitation states together and is the
    knob for trimming the overall phase of encoded-subspace sequences.
    """
    m = np.diag([
        1.0,
        np.exp(-0.5j * theta + 0.5j * phi),
        np.exp(0.5j * theta + 0.5j * phi),
        1.0,
    ]).astype(complex)
    return _frozen((2, 2), m)


@functools.cache
def cqet_matrix() -> LocalUnitary:
    """Controlled full transfer on three cells.

    The first listed qubit is the control cell.  The transfer block sits
    on basis indices 1 and 2 (``|001>`` and ``|010>``), so the swap fires
    when the control qubit is ``|0>``; with the control in ``|1>`` the
    pair is left alone.  The transfer angle is fixed at ``pi``, making
    the block exactly ``[[0, i], [i, 0]]``.
    """
    m = np.eye(8, dtype=complex)
    m[1, 1] = 0
    m[2, 2] = 0
    m[1, 2] = 1j
    m[2, 1] = 1j
    return _frozen((2, 2, 2), m)
