"""Frozen reference data for the transfer-protocol tests, and basis states.

``basis_state`` builds the product basis states that the dense
references of the state-vector and machine tests start from.

Two independently derived tables of per-step term configurations, as
(photon a, memory a, photon b, dot, photon c, memory c) level tuples:

* ``PHYSICAL_STEPS`` - the trajectory under fixed level semantics
  (storage on memory levels 1/3, transient level 2), worked out by hand
  with pencil-and-paper rule application.
* ``REFERENCE_STEPS`` - an alternative bookkeeping of the same
  trajectory that relabels memory storage levels along the way (ground
  written as 1 early and 0 late, excited written as 3 early and mostly
  1 late).

The two agree configuration-for-configuration once memory labels are
reduced to ground/excited, which ``semantic_config`` does by excitation
accounting.
"""

import math

import numpy as np

from qetsim.errors import DimensionError
from qetsim.statevector import StateVector

LINEAGES = ("alpha", "beta", "gamma", "delta")

# total excitation carried by each lineage (photons + raised atoms)
LINEAGE_EXCITATIONS = {"alpha": 1, "beta": 1, "gamma": 2, "delta": 2}

START = {
    "alpha": (0, 3, 0, 1, 0, 1),
    "beta": (0, 1, 0, 1, 0, 3),
    "gamma": (0, 3, 0, 3, 0, 1),
    "delta": (0, 1, 0, 3, 0, 3),
}

PHYSICAL_STEPS = (
    {"alpha": (1, 1, 0, 1, 0, 1), "beta": (0, 1, 0, 1, 0, 3),
     "gamma": (1, 1, 0, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
    {"alpha": (0, 1, 1, 1, 0, 1), "beta": (0, 1, 0, 1, 0, 3),
     "gamma": (0, 1, 1, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
    {"alpha": (0, 1, 0, 2, 0, 1), "beta": (0, 1, 0, 1, 0, 3),
     "gamma": (0, 1, 1, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
    {"alpha": (0, 1, 0, 3, 0, 1), "beta": (0, 1, 0, 1, 0, 3),
     "gamma": (0, 1, 1, 2, 0, 1), "delta": (0, 1, 0, 2, 0, 3)},
    {"alpha": (0, 1, 0, 3, 0, 1), "beta": (0, 1, 0, 1, 0, 3),
     "gamma": (0, 3, 0, 2, 0, 1), "delta": (0, 1, 0, 2, 0, 3)},
    {"alpha": (0, 1, 0, 3, 0, 1), "beta": (0, 1, 1, 1, 0, 1),
     "gamma": (0, 3, 0, 2, 0, 1), "delta": (0, 1, 1, 2, 0, 1)},
    {"alpha": (0, 1, 0, 2, 0, 1), "beta": (0, 1, 1, 1, 0, 1),
     "gamma": (0, 3, 0, 3, 0, 1), "delta": (0, 1, 1, 3, 0, 1)},
    {"alpha": (0, 1, 1, 1, 0, 1), "beta": (0, 1, 0, 2, 0, 1),
     "gamma": (0, 3, 0, 3, 0, 1), "delta": (0, 1, 1, 3, 0, 1)},
    {"alpha": (0, 1, 0, 1, 0, 3), "beta": (0, 1, 0, 2, 0, 1),
     "gamma": (0, 3, 0, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
    {"alpha": (0, 1, 0, 1, 0, 3), "beta": (0, 1, 1, 1, 0, 1),
     "gamma": (0, 3, 0, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
    {"alpha": (0, 1, 0, 1, 0, 3), "beta": (0, 3, 0, 1, 0, 1),
     "gamma": (0, 2, 0, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
)

REFERENCE_STEPS = (
    {"alpha": (1, 1, 0, 1, 0, 1), "beta": (0, 0, 0, 1, 0, 3),
     "gamma": (1, 1, 0, 3, 0, 1), "delta": (0, 1, 0, 3, 0, 3)},
    {"alpha": (0, 0, 1, 1, 0, 0), "beta": (0, 0, 0, 1, 0, 1),
     "gamma": (0, 0, 1, 3, 0, 0), "delta": (0, 0, 0, 3, 0, 1)},
    {"alpha": (0, 0, 0, 2, 0, 0), "beta": (0, 0, 0, 1, 0, 1),
     "gamma": (0, 0, 1, 3, 0, 0), "delta": (0, 0, 0, 3, 0, 1)},
    {"alpha": (0, 0, 0, 3, 0, 0), "beta": (0, 0, 0, 1, 0, 1),
     "gamma": (0, 0, 1, 2, 0, 0), "delta": (0, 0, 0, 2, 0, 1)},
    {"alpha": (0, 0, 0, 3, 0, 0), "beta": (0, 0, 0, 1, 0, 1),
     "gamma": (0, 3, 0, 2, 0, 0), "delta": (0, 0, 0, 2, 0, 1)},
    {"alpha": (0, 0, 0, 3, 0, 0), "beta": (0, 0, 1, 1, 0, 0),
     "gamma": (0, 3, 0, 2, 0, 0), "delta": (0, 0, 1, 2, 0, 0)},
    {"alpha": (0, 0, 0, 2, 0, 0), "beta": (0, 0, 1, 1, 0, 0),
     "gamma": (0, 3, 0, 3, 0, 0), "delta": (0, 0, 1, 3, 0, 0)},
    {"alpha": (0, 0, 1, 1, 0, 0), "beta": (0, 0, 0, 2, 0, 0),
     "gamma": (0, 3, 0, 3, 0, 0), "delta": (0, 0, 1, 3, 0, 0)},
    {"alpha": (0, 0, 0, 1, 0, 1), "beta": (0, 0, 0, 2, 0, 0),
     "gamma": (0, 3, 0, 3, 0, 0), "delta": (0, 0, 0, 3, 0, 1)},
    {"alpha": (0, 0, 0, 1, 0, 1), "beta": (0, 0, 1, 1, 0, 0),
     "gamma": (0, 3, 0, 3, 0, 0), "delta": (0, 0, 0, 3, 0, 1)},
    {"alpha": (0, 0, 0, 1, 0, 1), "beta": (0, 1, 0, 1, 0, 0),
     "gamma": (0, 1, 0, 3, 0, 0), "delta": (0, 0, 0, 3, 0, 1)},
)


def semantic_config(config, lineage):
    """Reduce memory labels to ground(0)/excited(1) by excitation count.

    Label 1 is ambiguous (early ground, late excited); it is
    resolved so that the term's total excitation matches the lineage.
    Raises if no unique resolution exists.
    """
    pa, ma, pb, dot, pc, mc = config
    dot_excited = 0 if dot == 1 else 1
    known = pa + pb + pc + dot_excited
    mems = []
    unknown_slots = []
    for position, label in enumerate((ma, mc)):
        if label == 0:
            mems.append(0)
        elif label in (2, 3):
            mems.append(1)
        elif label == 1:
            mems.append(None)
            unknown_slots.append(position)
        else:
            raise ValueError(f"unexpected memory label {label} in {config}")
    need = LINEAGE_EXCITATIONS[lineage] - known - sum(m for m in mems if m)
    if need == 0:
        fill = 0
    elif need == len(unknown_slots):
        fill = 1
    else:
        raise ValueError(f"ambiguous memory labels in {config} for {lineage}")
    for position in unknown_slots:
        mems[position] = fill
    return (pa, mems[0], pb, dot, pc, mems[1])


def basis_state(shape, levels) -> StateVector:
    """Product basis state with amplitude 1 on the given configuration."""
    shape = tuple(int(d) for d in shape)
    levels = tuple(int(x) for x in levels)
    if len(levels) != len(shape):
        raise DimensionError(
            f"expected {len(shape)} levels, got {len(levels)}")
    for sub, (level, d) in enumerate(zip(levels, shape)):
        if not 0 <= level < d:
            raise DimensionError(
                f"level {level} out of range for subsystem {sub} "
                f"(dimension {d})")
    amps = np.zeros(math.prod(shape), dtype=complex)
    amps[np.ravel_multi_index(levels, shape)] = 1.0
    return StateVector(shape, amps)
