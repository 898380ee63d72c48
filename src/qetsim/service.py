"""Multi-client programming service and dispatcher.

Requests carry operations on logical qubits addressed by client-local
integers.  Each op is decoded into a ``compiler.LogicalGate`` of any
kind in ``compiler.KINDS`` (``RX``, ``RZ``, ``QET``, ``PHASE``,
``CNOT``, ``CQET`` and ``MEASURE``), which checks it as it checks a
line of logical text.  The pipeline mirrors the layer structure of the
framework: request analysis, transformation of each request onto the
machine slots of its own segment, capacity-bounded batching of whole
segments, dispatch onto a backend, and demultiplexing of measurement
results back to local addresses.

``transform`` lowers each request once, through the compiler's
``emit``, straight onto the machine slots of its segment: with an empty
slot table each half of a local qubit's pair takes the next slot at its
first use, so client addresses up to ``QUBIT_BUDGET`` are compacted, and
every ``INIT`` is placed as the segment is built.  The dispatcher only
runs the program and the demultiplexer reads the readouts in the order
they ran.  Every segment runs as its own program on a fresh machine, so
no address outlives its request.  The TCP transport serves every
connection from one selector thread.

Wire protocol (newline-delimited JSON, UTF-8):

    {"type": "submit", "client": "<id>", "ops": [{"op": "QET",
        "qubits": [0], "theta": 3.14}, {"op": "PHASE", "qubits": [0],
        "theta": 1.57, "phi": 0.5}, {"op": "CNOT", "qubits": [0, 1]}, ...]}
    {"type": "result", "results": [{"qubit": 0, "bit": 1}, ...]}
    {"type": "error", "errors": [{"index": 0, "message": "..."}]}
    {"type": "capacity"}  ->  {"type": "capacity", "capacity": 1024}

A segment is the span of one client's physical commands ending with its
measure group; segments are never split across batches, and no two
clients' qubits are ever live in the same segment.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
from collections import deque
from dataclasses import dataclass, field

from .compiler import KINDS, TEMPLATES, LogicalGate, emit
from .errors import QetSimError, ServiceError, SynthesisError
from .gates import exact_turns
from .isa import QuantumProgram
from .machine import run_program
from .pcg64 import RandomSource
from .wire import encode_message

logger = logging.getLogger(__name__)

DEFAULT_CAPACITY = 1024
QUBIT_BUDGET = 256  # local qubit addresses a request may use
SUPPORT_BUDGET = 2 ** 20  # register entries a request may reach


@dataclass
class Segment:
    """One client's physical command run, ending at its measure group."""

    client_id: str
    request_id: int
    instructions: list  # Instruction over machine slots, INITs included
    slots: dict  # (local logical address, half of its pair) -> machine slot
    measured: list  # local logical address of each readout, in request order
    # commands the request asked for; the INITs the lowering adds are free
    command_count: int = field(init=False)

    def __post_init__(self):
        self.command_count = sum(instr.opcode != "INIT"
                                 for instr in self.instructions)


@dataclass
class ExecutionBatch:
    segments: list

    @property
    def command_count(self) -> int:
        return sum(seg.command_count for seg in self.segments)


def parse_client_ops(raw_ops) -> list[LogicalGate]:
    """Decode the wire-level ops array into checked logical ops."""
    if not isinstance(raw_ops, list):
        raise ServiceError([(0, "ops must be a list")])
    errors = []
    ops = []
    for index, raw in enumerate(raw_ops):
        if not isinstance(raw, dict):
            errors.append((index, "operation must be an object"))
            continue
        kind = raw.get("op")
        if not isinstance(kind, str) or kind not in KINDS:
            errors.append((index, f"unknown operation {kind!r}"))
            continue
        qubits = raw.get("qubits")
        if (not isinstance(qubits, list) or not qubits
                or not all(isinstance(q, int) and not isinstance(q, bool)
                           for q in qubits)):
            errors.append((index, "qubits must be a non-empty list of integers"))
            continue
        theta, phi = raw.get("theta"), raw.get("phi")
        for label, value in (("theta", theta), ("phi", phi)):
            if value is not None and (not isinstance(value, (int, float))
                                      or isinstance(value, bool)):
                errors.append((index, f"{label} must be a number"))
                break
        else:  # every angle given is a number
            try:
                ops.append(LogicalGate(kind, qubits, theta, phi))
            except SynthesisError as exc:
                errors.append((index, str(exc)))
    if errors:
        raise ServiceError(errors)
    return ops


def support_exponent(ops: list[LogicalGate]) -> int:
    """``log2`` of a sound bound on the machine support the request can reach.

    Each pair holds one excitation from its INIT until it is measured:
    a transfer moves it only between the two slots of one pair, and the
    slot moves relabel positions alike in every basis state.  So each
    qubit adds at most one bit of support, and only a ``QET`` or an
    ``RX`` (a ``QET`` of the negated angle) at an angle without an exact
    matrix splits a basis state in two; ``RZ``, ``PHASE``, ``CQET``,
    ``CNOT`` (exact transfers around a ``CQET``), the slot moves and
    ``MEASURE`` never add an entry.
    """
    splits = sum(1 for op in ops if op.kind in ("QET", "RX")
                 and exact_turns(op.theta) is None)
    qubits = {q for op in ops for q in op.qubits}
    return min(splits, len(qubits))


def analyze(ops: list[LogicalGate]) -> list[LogicalGate]:
    """The request checks: addresses, a readout, support size.

    Each op was checked on its own as it was decoded.  Returns the ops
    unchanged when everything passes; otherwise raises with one
    diagnostic per problem and nothing is enqueued.
    """
    errors = [(index, f"qubit address {q} outside declared range "
                      f"[0, {QUBIT_BUDGET})")
              for index, op in enumerate(ops) for q in op.qubits
              if not 0 <= q < QUBIT_BUDGET]
    if not any(op.kind == "MEASURE" for op in ops):
        errors.append((len(ops), "request contains no MEASURE; results would "
                                 "be unreturnable"))
    exponent = 0 if errors else support_exponent(ops)
    if 2 ** exponent > SUPPORT_BUDGET:
        errors.append((0, f"request may hold 2^{exponent} register entries; "
                          f"support budget is {SUPPORT_BUDGET}"))
    if errors:
        raise ServiceError(errors)
    return ops


# the fewest commands any op lowers to (a MEASURE's readout)
_FEWEST_COMMANDS = min(len(template) for template in TEMPLATES.values())


def transform(ops: list[LogicalGate], client_id: str,
              request_id: int = 0) -> Segment:
    """Lower validated logical ops onto the machine slots of one segment.

    Splits each logical qubit onto a physical pair through the compiler's
    ``emit`` with an empty slot table: each half of a pair takes the next
    free slot at its first use, and an INIT to its encoded bit goes right
    before that use and before its first use after a MEASURE.  The
    segment depends on the ops alone.
    """
    slots: dict[tuple[int, int], int] = {}
    instructions = emit(ops, slots)
    measured = [op.qubits[0] for op in ops if op.kind == "MEASURE"]
    return Segment(client_id, request_id, instructions, slots, measured)


def buffer_and_batch(queue: deque, capacity: int) -> ExecutionBatch:
    """Fill a batch with whole segments, FIFO, up to ``capacity`` commands."""
    segments = []
    used = 0
    while queue and used + queue[0].command_count <= capacity:
        segment = queue.popleft()
        used += segment.command_count
        segments.append(segment)
    return ExecutionBatch(segments)


class EmulatorBackend:
    """In-process backend running physical programs on the emulator."""

    def __init__(self, seed: int = 0):
        self._rng = RandomSource(seed)

    def run(self, program: QuantumProgram):
        return run_program(program, self._rng)


def _concretize(segment: Segment, clock: int) -> QuantumProgram:
    """The segment's machine program (``clock`` is unused)."""
    return QuantumProgram(max(len(segment.slots), 1), segment.instructions)


def dispatch(batch: ExecutionBatch, backend) -> list[tuple]:
    """Run every segment of a batch; a failing segment hurts only itself.

    Returns ``(segment, records, error)`` per segment: the backend's
    ``(machine slot, bit)`` records and None, or no records and the error.
    """
    outcomes = []
    for clock, segment in enumerate(batch.segments):
        program = _concretize(segment, clock)
        error = None
        try:
            records = backend.run(program)
        except Exception as exc:  # whatever fails stays with its segment
            known = isinstance(exc, QetSimError)
            logger.warning("segment %s/%s failed: %r", segment.client_id,
                           segment.request_id, exc, exc_info=not known)
            records = []
            error = str(exc) if known else repr(exc)
        outcomes.append((segment, records, error))
    return outcomes


def demux_results(outcomes: list[tuple]) -> dict:
    """Per-request responses keyed by ``(client_id, request_id)``.

    Readout ``k`` of a segment reads records ``2k`` and ``2k + 1``: the
    ``MEASURE`` template measures a pair's first slot and then its
    second, the backend returns one record per MEASURE in program order,
    and an INIT the lowering puts between the two measures returns none.
    So a qubit measured again after reuse gets its own bits.  Each logical
    readout takes the first physical bit; a pair with equal bits means the
    state left the encoded subspace and is surfaced as a decode error
    rather than being resolved silently.
    """
    responses = {}
    for segment, records, error in outcomes:
        key = (segment.client_id, segment.request_id)
        if error is None and len(records) != 2 * len(segment.measured):
            error = (f"backend returned {len(records)} measurement record(s) "
                     f"for {2 * len(segment.measured)} measured slot(s)")
        if error is not None:
            responses[key] = error_reply([(-1, error)])
            continue
        results = []
        errors = []
        pairs = zip(segment.measured, records[0::2], records[1::2])
        for position, (local, (_, first), (_, second)) in enumerate(pairs):
            if first == second:
                errors.append((position, f"leakage decoding q{local}: physical "
                                         f"pair read ({first}, {second})"))
                continue
            results.append({"qubit": local, "bit": first})
        if errors:
            responses[key] = error_reply(errors)
        else:
            responses[key] = {"type": "result", "results": results}
    return responses


class _Pending:
    """Handoff slot for one in-flight request."""

    def __init__(self):
        self._done = threading.Event()
        self.response = None

    def set(self, response):
        self.response = response
        self._done.set()

    def wait(self):
        self._done.wait()
        return self.response


class QpfService:
    """The framework front end: accepts requests, batches, dispatches.

    Thread-safe: one lock covers the request counter, the queue and the
    backend, so at most one batch is in flight at a time.
    """

    def __init__(self, seed: int = 0, capacity: int = DEFAULT_CAPACITY,
                 backend=None):
        self.backend = backend or EmulatorBackend(seed)
        self._capacity = int(capacity)
        self._queue: deque = deque()
        self._pending: dict[tuple[str, int], _Pending] = {}
        self._lock = threading.Lock()
        self._next_request = 0

    def capacity(self) -> int:
        return self._capacity

    def submit_request(self, client_id: str, raw_ops) -> dict:
        """Full pipeline for one request; blocks until its batch ran."""
        try:
            # a list too long to fit is refused before its ops are decoded
            fewest = (_FEWEST_COMMANDS * len(raw_ops)
                      if isinstance(raw_ops, list) else 0)
            if fewest > self.capacity():
                raise ServiceError(
                    [(0, f"request needs at least {fewest} commands; "
                         f"controller capacity is {self.capacity()}")])
            ops = analyze(parse_client_ops(raw_ops))
            # each template of an op's lowering is one command (INITs are free)
            needed = sum(len(TEMPLATES[op.kind]) for op in ops)
            if needed > self.capacity():
                raise ServiceError(
                    [(0, f"request needs {needed} commands; "
                         f"controller capacity is {self.capacity()}")])
            with self._lock:
                request_id = self._next_request
                segment = transform(ops, client_id, request_id)
                self._next_request += 1
                pending = _Pending()
                self._pending[(client_id, request_id)] = pending
                self._queue.append(segment)
        except ServiceError as exc:
            return error_reply(exc.errors)
        self._pump()
        return pending.wait()

    def _pump(self):
        """Drain whole batches under the lock, one batch at a time."""
        with self._lock:
            while (batch := buffer_and_batch(self._queue,
                                             self.capacity())).segments:
                responses = demux_results(dispatch(batch, self.backend))
                for key, response in responses.items():
                    self._pending.pop(key).set(response)

    # -- wire protocol -----------------------------------------------------

    def handle_message(self, message: dict) -> dict:
        kind = message.get("type")
        if kind == "capacity":
            return {"type": "capacity", "capacity": self.capacity()}
        if kind == "submit":
            client = message.get("client")
            if not isinstance(client, str) or not client:
                return error_reply([(-1, "submit needs a client id")])
            return self.submit_request(client, message.get("ops"))
        return error_reply([(-1, f"unknown message type {kind!r}")])

    def handle_line(self, line: str) -> str:
        try:
            # json.loads refuses a BOM before it decodes; decode() does not
            if line.startswith("\ufeff"):
                raise json.JSONDecodeError(
                    "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            message = _DECODER.decode(line)
            if not isinstance(message, dict):
                raise ValueError("message must be an object")
        except (ValueError, RecursionError) as exc:
            # RecursionError: the decoder recurses once per nesting level
            return malformed_reply(exc)
        return encode_message(self.handle_message(message))

    def handle_bytes(self, line: bytes) -> str | None:
        """The reply to one raw line of either transport; None for a blank line."""
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            return malformed_reply(exc)
        return self.handle_line(text) if text else None


def error_reply(pairs) -> dict:
    """The error message for ``(index, message)`` pairs; index -1 names no op."""
    return {"type": "error",
            "errors": [{"index": i, "message": m} for i, m in pairs]}


def malformed_reply(reason) -> str:
    """The reply to a line that is not a message."""
    return encode_message(error_reply([(-1, f"malformed message: {reason}")]))


MAX_LINE_BYTES = 1 << 20  # a longer line is refused
_TOO_LONG_REPLY = malformed_reply(f"line longer than {MAX_LINE_BYTES} bytes")
# a longer integer literal is refused, on every interpreter alike: the
# default limit of int() from text since Python 3.10.7
MAX_INT_DIGITS = 4300


def _read_int(literal: str) -> int:
    """A JSON integer literal, refused past ``MAX_INT_DIGITS`` digits."""
    if len(literal) - literal.startswith("-") > MAX_INT_DIGITS:
        raise ValueError(f"integer of more than {MAX_INT_DIGITS} digits")
    return int(literal)


_DECODER = json.JSONDecoder(parse_int=_read_int)


def serve_stdio(service: QpfService, stdin, stdout):
    """Serve the line protocol from a binary input to a text output until EOF.

    A line longer than ``MAX_LINE_BYTES`` gets the refusal TCP sends and
    is read past in bounded pieces; serving goes on with the next line.
    """
    while line := stdin.readline(MAX_LINE_BYTES + 1):
        if len(line) > MAX_LINE_BYTES and not line.endswith(b"\n"):
            reply = _TOO_LONG_REPLY
            while line and not line.endswith(b"\n"):
                line = stdin.readline(MAX_LINE_BYTES + 1)
        else:
            reply = service.handle_bytes(line)
        if reply is not None:
            stdout.write(reply + "\n")
            stdout.flush()


RECV_BYTES = 4096  # one read from a socket
MAX_UNSENT_BYTES = 1 << 16  # unsent reply bytes past which a socket is not read


class _Connection:
    """One client socket, its unanswered input and its unsent replies."""

    def __init__(self, sock: socket.socket, peer):
        self.sock = sock
        self.peer = peer
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.reading = True  # false once the client has sent all it will
        # after a refused line: input is dropped, and once the refusal is
        # sent the server's side is shut so that the client closes
        self.refused = False
        self.shut = False


class ServiceServer:
    """TCP transport for the line protocol; one thread serves every connection.

    The thread waits on a selector, reads each socket in small chunks,
    answers every complete line in arrival order and sends the replies
    without blocking.  A connection whose replies pile up unsent is not
    read until they drain, so a client that never reads stalls only
    itself, and a connection that fails is closed while the others are
    served on.
    """

    def __init__(self, service: QpfService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._wake_recv, self._wake_send = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_recv, selectors.EVENT_READ)
        self._stopping = False
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self):
        self._thread = threading.Thread(target=self._serve,
                                        name="qpf-service", daemon=True)
        self._thread.start()
        logger.info("service listening on %s:%d", *self.address)

    def stop(self):
        if self._stopping:
            return
        self._stopping = True
        if self._thread is None:
            self._close_all()
            return
        self._wake_send.send(b"\0")
        self._thread.join(timeout=5)

    def _serve(self):
        try:
            while not self._stopping:
                for key, events in self._selector.select():
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.data is not None:
                        self._serve_connection(key.data, events)
        finally:
            self._close_all()

    def _accept(self):
        try:
            sock, peer = self._listener.accept()
        except OSError as exc:  # the client left before it was accepted
            logger.info("accept failed: %r", exc)
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ,
                                _Connection(sock, peer))

    def _serve_connection(self, conn: _Connection, events: int):
        try:
            if events & selectors.EVENT_READ:
                data = conn.sock.recv(RECV_BYTES)
                conn.reading = bool(data)
                if not conn.refused:
                    # a last line without a newline is answered too
                    conn.inbox += data or b"\n"
            while True:
                stalled = self._answer(conn)
                if not (self._send(conn) and stalled):
                    break
            self._watch(conn)
        except Exception as exc:  # one connection's failure ends it alone
            logger.warning("closing connection from %s: %r", conn.peer, exc,
                           exc_info=not isinstance(exc, OSError))
            self._close(conn)

    def _answer(self, conn: _Connection) -> bool:
        """Reply to each complete line; true when stopped by unsent replies."""
        while len(conn.outbox) <= MAX_UNSENT_BYTES:
            end = conn.inbox.find(b"\n", 0, MAX_LINE_BYTES + 1)
            if end < 0:
                if len(conn.inbox) > MAX_LINE_BYTES:
                    conn.outbox += _TOO_LONG_REPLY.encode() + b"\n"
                    conn.inbox.clear()
                    conn.refused = True
                return False
            reply = self.service.handle_bytes(bytes(conn.inbox[:end]))
            del conn.inbox[:end + 1]
            if reply is not None:
                conn.outbox += reply.encode() + b"\n"
        return True

    def _send(self, conn: _Connection) -> bool:
        """Send what the socket takes; true when the unsent replies are few."""
        if conn.outbox:
            try:
                del conn.outbox[:conn.sock.send(conn.outbox)]
            except BlockingIOError:
                pass
        return len(conn.outbox) <= MAX_UNSENT_BYTES

    def _watch(self, conn: _Connection):
        """Wait for what the connection needs next, or close it when done."""
        if not conn.outbox:
            if not conn.reading:
                self._close(conn)
                return
            if conn.refused and not conn.shut:
                # closing now could reset the connection before the client
                # has read the refusal, if some of its input is still unread
                conn.sock.shutdown(socket.SHUT_WR)
                conn.shut = True
        events = selectors.EVENT_WRITE if conn.outbox else 0
        if conn.reading and len(conn.outbox) <= MAX_UNSENT_BYTES:
            events |= selectors.EVENT_READ
        if events != self._selector.get_key(conn.sock).events:
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Connection):
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _close_all(self):
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._wake_send.close()
        self._selector.close()
