"""Spans and counters recorded around the public functions of qetsim.

The benchmark never edits the program: :func:`install` replaces module
attributes with timing wrappers, in every ``qetsim`` module that holds
the same function object, so callers that imported a name with
``from .module import name`` see the wrapper too.

A span is one row of nine numbers, appended to a flat ``array('d')`` in
one ``extend`` call so that rows from concurrent threads never
interleave:

    span id, name id, start, end, parent span id, request id,
    payload a, payload b, excluded seconds

``excluded`` is time spent inside the span on the tracer's own probes
(counting nonzero amplitudes); it is subtracted from self time.  Times
are ``time.monotonic()``, which on Linux is the system-wide
``CLOCK_MONOTONIC`` and so comparable across processes.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from array import array
from time import monotonic

import numpy as np

FIELDS = ("sid", "name", "start", "end", "parent", "rid", "a", "b", "excl")
OPCODES = ("INIT", "LOAD", "SAVE", "QET", "PHASE", "CQET", "MEASURE")


class Tracer:
    """In-memory span buffer; written out once, by :meth:`dump`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._rows = array("d")
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        # service request id -> (time its segment was queued, trace request id)
        self._queued: dict[int, tuple[float, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name_id: int, start: float, end: float, parent: int = -1,
               rid: int = 0, a: float = 0.0, b: float = 0.0) -> None:
        """Add a span that no wrapper timed (for example a queue wait)."""
        self._rows.extend((next(self._ids), name_id, start, end, parent, rid,
                           a, b, 0.0))

    def span(self, fn, name: str, *, name_of=None, payload=None, on_error=None,
             enter=None):
        """Wrap ``fn`` so each call records one span.

        ``name_of(args)`` picks the span name per call; ``payload(args,
        result)`` returns ``(a, b, excluded_seconds)``; ``on_error(exc)``
        returns the payload ``a`` of a call that raised; ``enter(args)``
        returns a request id to run the call under.
        """
        fixed = self.name_id(name)
        ids, rows, stack_of = self._ids, self._rows, self._stack
        local = self._local

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            nid = name_of(args) if name_of is not None else fixed
            outer_rid = getattr(local, "rid", 0)
            rid = enter(args) if enter is not None else outer_rid
            local.rid = rid
            stack.append(sid)
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = monotonic()
                stack.pop()
                local.rid = outer_rid
                a = on_error(exc) if on_error is not None else 0.0
                rows.extend((sid, nid, start, end, parent, rid, a, 0.0, 0.0))
                raise
            a = b = excluded = 0.0
            if payload is not None:
                a, b, excluded = payload(args, result)
            end = monotonic()
            stack.pop()
            local.rid = outer_rid
            rows.extend((sid, nid, start, end, parent, rid, a, b, excluded))
            return result

        traced.__wrapped__ = fn
        return traced

    def rows(self) -> np.ndarray:
        return np.frombuffer(self._rows, dtype=float).reshape(-1, len(FIELDS))

    def dump(self, path: str) -> None:
        """Write the spans as ``<path>.npy`` and their names as ``<path>.json``."""
        np.save(path + ".npy", self.rows())
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "names": self.names}, handle)


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name != "qetsim" and not name.startswith("qetsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap(tracer: Tracer, owner, attr: str, name: str, **options) -> None:
    """Wrap ``owner.attr``; a module function is replaced wherever imported."""
    original = getattr(owner, attr)
    wrapper = tracer.span(original, name, **options)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    else:
        _replace_everywhere(original, wrapper)


def _size(program) -> tuple[float, float, float]:
    return float(len(program.instructions)), 0.0, 0.0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import qetsim.cli  # noqa: F401  (load every module that re-exports names)
    from qetsim import (compiler, dynamics, isa, machine, protocol, service,
                        statevector)
    from qetsim.errors import ServiceError

    _wrap(tracer, isa, "parse_program_with_lines", "isa.parse",
          payload=lambda args, out: _size(out[0]))
    _wrap(tracer, isa, "validate_program", "isa.validate",
          payload=lambda args, out: _size(args[0]))
    _wrap(tracer, compiler, "parse_logical_program", "compiler.parse_logical")
    _wrap(tracer, compiler, "transform_program", "compiler.transform_program",
          payload=lambda args, out: _size(out))

    exec_ids = {op: tracer.name_id(f"machine.exec.{op}") for op in OPCODES}

    def register_probe(args, out):
        probe = monotonic()
        amps = out[0].register.amps
        nonzero = float(np.count_nonzero(amps))
        return nonzero, float(amps.size), monotonic() - probe

    _wrap(tracer, machine, "execute_instruction", "machine.exec",
          name_of=lambda args: exec_ids[args[1].opcode], payload=register_probe)
    _wrap(tracer, machine, "run_program", "machine.run_program",
          payload=lambda args, out: _size(args[0]))
    _wrap(tracer, statevector, "apply_local", "statevector.apply_local",
          payload=lambda args, out: (2.0 * args[0].amps.nbytes, 0.0, 0.0))
    _wrap(tracer, statevector, "measure_subsystem", "statevector.measure",
          payload=lambda args, out: (2.0 * args[0].amps.nbytes, 0.0, 0.0))

    for attr in ("run_protocol", "frame_vector", "step_term_trace"):
        _wrap(tracer, protocol, attr, f"protocol.{attr}")
    for attr in ("integrate_two_level", "rabi_coefficients"):
        _wrap(tracer, dynamics, attr, f"dynamics.{attr}")

    _install_service(tracer, service, ServiceError)


def _install_service(tracer: Tracer, service, service_error) -> None:
    rejected = lambda exc: 1.0 if isinstance(exc, service_error) else 0.0  # noqa: E731
    local = tracer._local
    wait_id = tracer.name_id("service.queue_wait")

    _wrap(tracer, service.QpfService, "handle_line", "service.handle",
          enter=lambda args: next(tracer._rids))
    # waiting for the backend lock and for another thread's batch, so that
    # the self time of service.handle is decoding and bookkeeping only
    _wrap(tracer, service.QpfService, "_pump", "service.pump")
    _wrap(tracer, service._Pending, "wait", "service.reply_wait")
    _wrap(tracer, service, "parse_client_ops", "service.parse_ops",
          on_error=rejected)
    _wrap(tracer, service, "analyze", "service.analyze", on_error=rejected)

    def enqueued(args, segment):
        # the caller appends the segment to the queue right after this returns
        tracer._queued[segment.request_id] = (monotonic(), getattr(local, "rid", 0))
        return 0.0, 0.0, 0.0

    _wrap(tracer, service, "transform", "service.transform", payload=enqueued)

    def batched(args, batch):
        now = monotonic()
        for segment in batch.segments:
            since, rid = tracer._queued.get(segment.request_id, (now, 0))
            tracer.record(wait_id, since, now, rid=rid)
        capacity = args[1]
        return (float(len(batch.segments)),
                batch.command_count / capacity if capacity else 0.0, 0.0)

    _wrap(tracer, service, "buffer_and_batch", "service.batch", payload=batched)
    _wrap(tracer, service, "dispatch", "service.dispatch")

    concretize = service._concretize

    def concretize_for(segment, clock):
        # the backend call that follows runs under this segment's request
        local.segment_rid = tracer._queued.pop(segment.request_id, (0.0, 0))[1]
        return concretize(segment, clock)

    _replace_everywhere(concretize, concretize_for)
    _wrap(tracer, service.EmulatorBackend, "run", "service.backend_run",
          enter=lambda args: getattr(local, "segment_rid", 0))

    def leakage(args, responses):
        count = sum(1 for reply in responses.values()
                    for error in reply.get("errors", ())
                    if "leakage" in error.get("message", ""))
        return float(count), 0.0, 0.0

    _wrap(tracer, service, "demux_results", "service.demux", payload=leakage)
    _wrap(tracer, service, "encode_message", "service.encode")
