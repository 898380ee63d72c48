"""The uniform stream of ``numpy.random.default_rng(seed)``, in pure Python.

``default_rng`` seeds a PCG64 generator (128-bit LCG, XSL-RR output)
through a ``SeedSequence``; ``random()`` keeps the top 53 bits of each
64-bit output.  This module repeats both steps with Python integers, so
a seed gives the same doubles, bit for bit, without importing
``numpy.random``: that import alone maps about 6 MB into a process,
because ``numpy.random`` pulls in ``secrets`` and with it OpenSSL.
It is the package's only generator: ``statevector.RandomSource`` draws
the machine's and the service's outcomes from it, and the protocol
oracle's Gaussian inputs through a Box-Muller transform of its doubles.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence constants (O'Neill's seed_seq_fe with a 4-word pool)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_pool(seed: int) -> list[int]:
    """The mixed 32-bit pool ``SeedSequence(seed)`` builds."""
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    return pool


def _generate_state(pool: list[int], n_words64: int) -> list[int]:
    """``SeedSequence.generate_state(n_words64, np.uint64)``."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * n_words64):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> _XSHIFT))
    return [words[2 * i] | (words[2 * i + 1] << 32) for i in range(n_words64)]


class Pcg64:
    """PCG64 seeded as ``numpy.random.default_rng(seed)`` seeds it."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        s0, s1, i0, i1 = _generate_state(_entropy_pool(seed), 4)
        self._inc = ((((i0 << 64) | i1) << 1) | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + ((s0 << 64) | s1)) & _M128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _M128

    def random(self) -> float:
        """Uniform double in ``[0, 1)``, as ``Generator.random()``."""
        self._step()
        state = self._state
        mixed = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        word = ((mixed >> rot) | (mixed << (64 - rot))) & _M64
        return (word >> 11) * (1.0 / 9007199254740992.0)
