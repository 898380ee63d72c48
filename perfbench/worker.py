"""Process that runs the program side of one benchmark run.

Usage: ``python3 perfbench/worker.py SPEC.json``

The spec names the kind of work (``shots``, ``oracle`` or ``serve``),
the ``src`` directory to import qetsim from, whether to trace, and where
to write the result.  Shot and oracle workers time the machine-speed
reference of kind ``reference`` (``reference.py``) after every
``ref_every`` ops, outside the ops' own timings; for a server, the load
generator times it.  With tracing on, the worker wraps qetsim's public
functions (see ``tracer.py``) before any work starts and writes the
spans when the work ends; the work itself goes through the same entry
points either way, so a traced and an untraced run have the same process
topology.  Times are ``time.monotonic()`` so that the parent can compare
them with its own.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
from time import monotonic

from reference import reference_seconds


class ClockedStream:
    """Stand-in for stdout that keeps each JSON line with its write time."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith("{"):
            self.stamps.append(monotonic())
            self.lines.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Phases:
    """Warm-up, then a measured window of ``seconds``; ``limit`` ops at most."""

    def __init__(self, spec: dict):
        self.warm_until = monotonic() + spec["warmup_s"]
        self.seconds = spec["seconds"]
        self.limit = spec.get("limit")
        self.stop_at: float | None = None
        self.done = 0

    def next(self) -> str | None:
        """Phase of the next op: ``warmup``, ``measure``, or None to stop."""
        now = monotonic()
        if self.limit is not None and self.done >= self.limit:
            return None
        self.done += 1
        if self.stop_at is None:
            if now < self.warm_until:
                return "warmup"
            self.stop_at = now + self.seconds
            return "measure"
        return "measure" if now < self.stop_at else None


def run_shots(spec: dict) -> dict:
    """Call ``qetsim run --output machine`` in chunks of shots."""
    from qetsim import cli

    phases = Phases(spec)
    seeds = spec["run_seeds"]
    chunks = []
    while (phase := phases.next()) is not None:
        seed = seeds[(phases.done - 1) % len(seeds)]
        stream = ClockedStream()
        start = monotonic()
        with contextlib.redirect_stdout(stream):
            code = cli.main(["run", spec["program_path"],
                             "--shots", str(spec["chunk_shots"]),
                             "--seed", str(seed), "--output", "machine"])
        chunks.append({"phase": phase, "start": start, "end": monotonic(),
                       "code": code, "shots": spec["chunk_shots"],
                       "lines": stream.lines, "stamps": stream.stamps})
        _reference(spec, chunks)
    return {"ops": chunks}


def run_oracle(spec: dict) -> dict:
    """Rounds of the physics oracle through its public functions."""
    from qetsim import dynamics, protocol, statevector

    phases = Phases(spec)
    rounds = spec["rounds"]
    out = []
    while (phase := phases.next()) is not None:
        item = rounds[(phases.done - 1) % len(rounds)]
        convention = item["convention"]
        start = monotonic()
        comparison = protocol.verify_against_cqet(1, convention,
                                                  item["verify_seed"])
        raw = item["term_input"]
        reference = protocol.ProtocolInput(
            *(complex(raw[k], raw[k + 1]) for k in range(0, 8, 2)))
        trajectory = protocol.run_protocol(reference, convention)
        terms = protocol.step_term_trace(convention)
        term_fidelity = min(
            statevector.fidelity(protocol.assemble_state(step, reference), state)
            for step, state in zip(terms, trajectory.intermediates))
        errors = []
        for params in item["dynamics"]:
            a_re, a_im, b_re, b_im = params["state"]
            alpha, beta = complex(a_re, a_im), complex(b_re, b_im)
            p = dynamics.CavityAtomParams(complex(*params["kappa"]),
                                          params["omega_a"], params["omega_b"],
                                          params["t"])
            rk4 = dynamics.integrate_two_level(alpha, beta, p)
            closed = dynamics.rabi_coefficients(alpha, beta, p)
            errors.append(max(abs(rk4[0] - closed[0]), abs(rk4[1] - closed[1])))
        out.append({"phase": phase, "start": start, "end": monotonic(),
                    "convention": convention,
                    "transfer_infidelity": comparison.transfer_infidelity,
                    "branch_phases": {name: [value.real, value.imag]
                                      for name, value in
                                      comparison.branch_phases.items()},
                    "term_fidelity": term_fidelity,
                    "dynamics_error": errors})
        _reference(spec, out)
    return {"ops": out}


def run_serve(spec: dict) -> dict:
    """``qetsim serve --transport socket`` until SIGINT."""
    from qetsim import cli

    # A shell may have started this process with SIGINT ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    code = cli.main(["serve", "--transport", "socket", "--port", "0",
                     "--seed", str(spec["server_seed"])])
    return {"code": code}


def _reference(spec: dict, ops: list[dict]) -> None:
    """Time the reference after every ``ref_every`` ops; mark the last op."""
    if len(ops) % spec["ref_every"] == 0:
        ops[-1]["ref_s"] = reference_seconds(spec["reference"])


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` is no good here: Linux carries the parent's peak over
    the ``exec`` that started this process, so it can never read below
    the RSS of the benchmark process that spawned it.  ``VmHWM`` is the
    high-water mark of the current address space only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


KINDS = {"shots": run_shots, "oracle": run_oracle, "serve": run_serve}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import qetsim
    if not os.path.abspath(qetsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"qetsim imported from {qetsim.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    result = KINDS[spec["kind"]](spec)
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.dump(spec["trace_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
