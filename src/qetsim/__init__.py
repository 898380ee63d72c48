"""Excitation-transfer QPU emulator.

Layers, bottom up: dense state-vector algebra over mixed-dimension
subsystems, the seven-instruction machine on a sparse register and its
gate matrices, a physics-level simulation of the three-cavity transfer
protocol used as an independent oracle, a logical-qubit compiler over
the pairwise encoding, and a multi-client programming service with a
dispatcher.
"""

from .compiler import (LogicalGate, LogicalProgram, decompose_su2, encode_init,
                       leakage_check, pair, parse_logical_program,
                       synthesize_logical_cnot, transform_program)
from .dynamics import (CavityAtomParams, ZeemanParams, integrate_two_level,
                       rabi_coefficients, zeeman_phase)
from .errors import (ConvergenceError, DimensionError, MeasurementError,
                     ProgramSyntaxError, ProtocolError, QetSimError,
                     QpuRuntimeError, ServiceError, SynthesisError)
from .gates import cqet_matrix, phase_matrix, qet_matrix
from .isa import (Instruction, QuantumProgram, format_program,
                  validate_program)
from .machine import (MachineState, execute_instruction, fresh_machine,
                      run_program)
from .protocol import (PROTOCOL_SEQUENCE, ElementaryOp, ProtocolInput,
                       elementary_unitary, run_protocol, verify_against_cqet)
from .service import (EmulatorBackend, ExecutionBatch, QpfService,
                      ServiceServer, analyze, buffer_and_batch, demux_results,
                      dispatch, transform)
from .statevector import (LocalUnitary, RandomSource, StateVector,
                          apply_local, basis_state, fidelity, is_unitary,
                          measure_subsystem)

__version__ = "0.1.0"
