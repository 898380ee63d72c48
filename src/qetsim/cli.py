"""Operator command line: validate, run, compile, protocol-verify, serve.

Every command reads and runs programs, so the compiler and the machine
are imported here.  The protocol oracle and the service, with its
sockets and logging, are imported inside the one command that runs
each, so ``qetsim run`` neither loads nor compiles them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .compiler import parse_logical_program, transform_program
from .errors import ProgramSyntaxError, QetSimError
from .gates import SWAP_FACTOR
from .isa import (QuantumProgram, format_program, parse_program_with_lines,
                  read_operand, token_lines, validate_program)
from .machine import bit_layout, run_program
from .statevector import RandomSource, fidelity
from .wire import encode_message

IDEAL_INFIDELITY_GATE = 1e-9


def _int_type(low: int, high: float, message: str):
    """An argparse type: an integer in ``[low, high]``, else ``message``.

    The integer is read as program text reads one, in ASCII digits only.
    """
    def convert(text: str) -> int:
        try:
            value = read_operand("", "", text)
            if low <= value <= high:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message)
    return convert


_positive_int = _int_type(1, math.inf, "must be a positive integer")
_seed = _int_type(0, math.inf, "must be a non-negative integer")
_port = _int_type(0, 65535, "must be an integer in 0..65535")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="Emulator tools for the excitation-transfer QPU")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a physical or logical program file")
    p.add_argument("path")

    p = sub.add_parser("run", help="execute a program file")
    p.add_argument("path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--shots", type=_positive_int, default=1)
    p.add_argument("--output", choices=("human", "machine"), default="human")

    p = sub.add_parser("compile", help="lower a logical program to machine text")
    p.add_argument("path")

    p = sub.add_parser("protocol-verify",
                       help="run the physics-level transfer protocol oracle")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--convention", choices=tuple(SWAP_FACTOR),
                   default="ideal")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", choices=("human", "machine"), default="human")

    p = sub.add_parser("serve", help="serve the multi-client framework protocol")
    p.add_argument("--capacity", type=_positive_int, default=None)
    p.add_argument("--transport", choices=("stdio", "socket"), default="stdio")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=0)
    return parser


def _load(path: str) -> tuple[QuantumProgram, tuple[int, ...]]:
    """The machine program in a file and the source line of each instruction.

    ``LQ`` text is lowered by ``transform_program``, and its program has
    no source lines: a lowered program always validates.  Any other text
    is read as machine text.  A program wider than the machine is
    refused (``LQ`` text by ``transform_program``) before it is lowered
    or run, so ``validate`` and ``run`` agree.
    """
    text = Path(path).read_text(encoding="utf-8")
    if next((tokens[0].upper() for _, tokens in token_lines(text)), "") == "LQ":
        return transform_program(parse_logical_program(text)), ()
    program, lines = parse_program_with_lines(text)
    bit_layout(program.s)
    return program, lines


def cmd_validate(args) -> int:
    program, lines = _load(args.path)
    issues = validate_program(program)
    for index, message in issues:
        print(f"line {lines[index]} (instruction {index}): {message}")
    if issues:
        return 1
    print("ok")
    return 0


def cmd_run(args) -> int:
    program, _ = _load(args.path)
    rng = RandomSource(args.seed)
    counts: dict[str, int] = {}
    for shot in range(args.shots):
        results = run_program(program, rng)
        key = "".join(str(bit) for _, bit in results)
        counts[key] = counts.get(key, 0) + 1
        if args.output == "machine":
            print(encode_message(
                {"type": "shot", "shot": shot,
                 "results": [{"qubit": addr, "bit": bit}
                             for addr, bit in results]}))
        else:
            shown = " ".join(f"m{addr}={bit}" for addr, bit in results)
            print(f"shot {shot}: {shown or '(no measurements)'}")
    if args.output == "machine":
        print(encode_message({"type": "aggregate", "shots": args.shots,
                              "counts": counts}))
    else:
        print(f"counts over {args.shots} shot(s):")
        for key in sorted(counts):
            fraction = counts[key] / args.shots
            print(f"  {key or '-'}: {counts[key]} ({fraction:.4f})")
    return 0


def cmd_compile(args) -> int:
    text = Path(args.path).read_text(encoding="utf-8")
    program = transform_program(parse_logical_program(text))
    sys.stdout.write(format_program(program))
    return 0


def cmd_protocol_verify(args) -> int:
    from .protocol import (PROTOCOL_SEQUENCE, ProtocolInput, assemble_state,
                           initial_state, run_protocol, step_term_trace,
                           verify_against_cqet)

    reference = ProtocolInput(0.5, 0.5, 0.5, 0.5)
    result = run_protocol(reference, args.convention)
    trace = step_term_trace(args.convention)
    rows = [("initial state", fidelity(initial_state(reference),
                                       initial_state(reference)))]
    for step, terms, state in zip(PROTOCOL_SEQUENCE, trace,
                                  result.intermediates):
        rows.append((step.name, fidelity(assemble_state(terms, reference),
                                         state)))
    comparison = verify_against_cqet(args.samples, args.convention, args.seed)

    if args.output == "machine":
        for index, (name, value) in enumerate(rows):
            print(encode_message({"type": "step", "step": index, "name": name,
                                  "fidelity": value}))
        print(encode_message({
            "type": "summary", "convention": comparison.convention,
            "samples": comparison.samples,
            "transfer_infidelity": comparison.transfer_infidelity,
            "matrix_infidelity": comparison.matrix_infidelity,
            "branch_phases": {name: [phase.real, phase.imag]
                              for name, phase in
                              comparison.branch_phases.items()}}))
    else:
        for index, (name, value) in enumerate(rows):
            print(f"step {index:2d}  {name:<36s} fidelity {value:.12f}")
        print(f"transfer infidelity (plain swap target):  "
              f"{comparison.transfer_infidelity:.3e}")
        print(f"gate-matrix infidelity (with i factors):  "
              f"{comparison.matrix_infidelity:.3e}")
        for name, phase in comparison.branch_phases.items():
            print(f"branch phase {name:<6s} {phase.real:+.6f}{phase.imag:+.6f}i")
    if (args.convention == "ideal"
            and comparison.transfer_infidelity > IDEAL_INFIDELITY_GATE):
        return 1
    return 0


def cmd_serve(args) -> int:
    import logging
    import time

    from .service import (DEFAULT_CAPACITY, QpfService, ServiceServer,
                          serve_stdio)

    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s %(message)s")
    service = QpfService(seed=args.seed,
                         capacity=args.capacity or DEFAULT_CAPACITY)
    if args.transport == "stdio":
        serve_stdio(service, sys.stdin.buffer, sys.stdout)
        return 0
    server = ServiceServer(service, args.host, args.port)
    server.start()
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "run": cmd_run,
        "compile": cmd_compile,
        "protocol-verify": cmd_protocol_verify,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ProgramSyntaxError as exc:
        for lineno, message in exc.issues:
            print(f"line {lineno}: {message}")
    except (QetSimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
