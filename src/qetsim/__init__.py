"""Excitation-transfer QPU emulator.

Layers, bottom up: dense state-vector algebra over mixed-dimension
subsystems, the seven-instruction machine on a sparse register and its
gate matrices, a physics-level simulation of the three-cavity transfer
protocol used as an independent oracle, a logical-qubit compiler over
the pairwise encoding, and a multi-client programming service with a
dispatcher.

Importing the package loads none of them: names are imported from
their modules (``from qetsim.protocol import run_protocol``), so a
process pays only for the layers it uses.
"""

__version__ = "0.1.0"
