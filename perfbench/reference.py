"""Machine-speed references for the normalized end-to-end metrics.

On a shared host the same code can run twice as fast in one stretch of
ten seconds or so as in the next: the first baseline saw 530 to 1160
Bell shots/s inside one 25-second run, with thread CPU time tracking wall
time, so the code itself ran slower.  Its speed relative to a fixed piece
of code with the same kind of cost is far steadier.  So every
run times one of these fixed loops between its slices of work, and the
normalized metrics scale each slice by

    speed = NOMINAL_S[kind] / reference time next to the slice

Two kinds, because the host slows interpreter work and amplitude
movement by different amounts: ``interpreter`` builds small dicts, the
bytecode-bound part of the shot loop of a tiny register, the service and
the oracle; ``arrays`` moves a 2^13-amplitude state with ``moveaxis``
copies and applies a 2x2 unitary to its halves elementwise, as the GHZ-7
ladder's ``apply_local`` calls do on a state sixteen times larger.

Neither imports qetsim, and neither calls BLAS: NumPy's matrix product
goes to the process-wide BLAS thread pool, whose default threading is a
known cost of the program under test, and a reference that used it
would speed up along with a fix to it.  Elementwise ufuncs and copies run
on the calling thread only.  The ``arrays`` buffers (448 KiB) are
allocated once, on the first call, so that the timing does not depend
on how the program has left the allocator, and only in a process that
times this kind, so that they set no floor under a service or oracle
``peak_rss_mb``; on ``ghz_ladder`` they are a small fraction of the
program's 2 MiB register and its copies.
"""

from __future__ import annotations

from time import monotonic

import numpy as np

# Typical times of reference_seconds() on the 2-core machine that took the
# first baseline, so that normalized figures read close to raw ones there.
NOMINAL_S = {"interpreter": 0.0011, "arrays": 0.003}

ARRAY_QUBITS = 13
ARRAY_PASSES = 8
_HALF = 2 ** (ARRAY_QUBITS - 1)
_buffers: list[np.ndarray] = []  # state, moved copy, result, scratch half


def _interpreter() -> None:
    for i in range(8000):
        record = {"a": i, "b": i}
        len(record)


def _arrays() -> None:
    if not _buffers:
        shape = (2,) * ARRAY_QUBITS
        _buffers.extend(np.empty(shape, dtype=complex) for _ in range(3))
        _buffers.append(np.empty(_HALF, dtype=complex))
        _buffers[0].fill(2 ** (-ARRAY_QUBITS / 2))
    state, moved, result, scratch = _buffers
    x, y = moved.reshape(2, _HALF)
    new_x, new_y = result.reshape(2, _HALF)
    for _ in range(ARRAY_PASSES):
        for axis in range(0, ARRAY_QUBITS, 2):
            np.copyto(moved, np.moveaxis(state, axis, 0))
            np.multiply(x, 0.6, out=new_x)
            np.add(new_x, np.multiply(y, 0.8j, out=scratch), out=new_x)
            np.multiply(x, 0.8j, out=new_y)
            np.add(new_y, np.multiply(y, 0.6, out=scratch), out=new_y)
            np.copyto(state, np.moveaxis(result, 0, axis))


_BODIES = {"interpreter": _interpreter, "arrays": _arrays}


def reference_seconds(kind: str = "interpreter", repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of one reference loop; the fastest,
    so that one interruption does not count."""
    body = _BODIES[kind]
    best = float("inf")
    for _ in range(repeats):
        start = monotonic()
        body()
        best = min(best, monotonic() - start)
    return best
