"""The TCP transport: one selector thread serving every connection.

After one plain round trip, each test breaks one connection in one way
and checks that a second client, connected the whole time, is still
served correctly.
"""

import json
import logging
import math
import selectors
import socket
import struct
import threading
import time

import pytest

from qetsim.service import (MAX_LINE_BYTES, QpfService, ServiceServer,
                            encode_message)

TIMEOUT_S = 30

FLIP = {"type": "submit", "client": "good",
        "ops": [{"op": "QET", "qubits": [1], "theta": math.pi},
                {"op": "MEASURE", "qubits": [0]},
                {"op": "MEASURE", "qubits": [1]}]}
FLIPPED = {"type": "result", "results": [{"qubit": 0, "bit": 0},
                                         {"qubit": 1, "bit": 1}]}


@pytest.fixture
def server():
    server = ServiceServer(QpfService(seed=0), "127.0.0.1", 0)
    server.start()
    try:
        yield server
    finally:
        server.stop()
    assert not server._thread.is_alive()


class Client:
    """A blocking line-protocol client on its own connection."""

    def __init__(self, address, receive_buffer=None):
        self.sock = socket.socket()
        if receive_buffer is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                 receive_buffer)
        self.sock.settimeout(TIMEOUT_S)
        self.sock.connect(address)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes):
        self.sock.sendall(data)

    def reply(self) -> dict:
        line = self.reader.readline()
        assert line.endswith(b"\n"), f"connection ended after {line!r}"
        return json.loads(line)

    def ask(self, message: dict) -> dict:
        self.send(encode_message(message).encode() + b"\n")
        return self.reply()

    def at_end(self) -> bool:
        return self.reader.readline() == b""

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture
def clients(server):
    opened = []

    def connect(**options):
        opened.append(Client(server.address, **options))
        return opened[-1]

    yield connect
    for client in opened:
        client.close()


def test_socket_transport_round_trip(server, clients):
    client = clients()
    reply = client.ask({"type": "submit", "client": "a",
                        "ops": [{"op": "MEASURE", "qubits": [0]}]})
    assert reply == {"type": "result", "results": [{"qubit": 0, "bit": 0}]}
    capacity = client.ask({"type": "capacity"})
    assert capacity["capacity"] == server.service.capacity()


def _is_malformed(reply: dict) -> bool:
    return (reply["type"] == "error"
            and reply["errors"][0]["message"].startswith("malformed message"))


def test_over_long_line_is_refused_then_closed(clients):
    good, bad = clients(), clients()
    assert good.ask(FLIP) == FLIPPED
    bad.send(b"x" * (MAX_LINE_BYTES + 10))
    reply = bad.reply()
    assert _is_malformed(reply)
    assert "longer than" in reply["errors"][0]["message"]
    assert bad.at_end()
    assert good.ask(FLIP) == FLIPPED


def test_invalid_utf8_is_a_malformed_line(clients):
    good, bad = clients(), clients()
    bad.send(b"\xff\xfe{}\n")
    assert _is_malformed(bad.reply())
    assert good.ask(FLIP) == FLIPPED
    # line framing survives, so the same connection goes on working
    assert bad.ask({**FLIP, "client": "bad"}) == FLIPPED


def _write_only_connections(server) -> int:
    return sum(1 for key in list(server._selector.get_map().values())
               if key.data is not None and key.events == selectors.EVENT_WRITE)


def test_client_that_never_reads_stalls_only_itself(server, clients):
    # small kernel buffers (accepted sockets inherit the listener's), so
    # that the replies the client leaves unread pile up in the server
    server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    good, stuck = clients(), clients(receive_buffer=4096)
    # once both are answered both are registered, so the selector map
    # polled below no longer changes size
    assert good.ask(FLIP) == FLIPPED
    assert stuck.ask({**FLIP, "client": "stuck"}) == FLIPPED
    burst = (encode_message({**FLIP, "client": "stuck"}).encode() + b"\n") * 2000
    sender = threading.Thread(target=stuck.send, args=(burst,), daemon=True)
    sender.start()
    deadline = time.monotonic() + TIMEOUT_S
    while not _write_only_connections(server):
        assert time.monotonic() < deadline, "the server never stopped reading"
        time.sleep(0.01)
    for _ in range(20):
        assert good.ask(FLIP) == FLIPPED
    # reading at last, the stalled client gets every reply, in order
    for _ in range(2000):
        assert stuck.reply() == FLIPPED
    sender.join(TIMEOUT_S)
    assert not sender.is_alive()
    assert good.ask(FLIP) == FLIPPED


def test_client_that_leaves_mid_line(clients):
    good, gone = clients(), clients()
    gone.send(encode_message(FLIP).encode()[:20])
    # linger on, for 0 s: closing resets the connection
    gone.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))
    gone.close()
    quitter = clients()
    quitter.send(encode_message(FLIP).encode()[:20])
    quitter.sock.shutdown(socket.SHUT_WR)
    # the partial line is answered like any line, then the connection ends
    assert _is_malformed(quitter.reply())
    assert quitter.at_end()
    assert good.ask(FLIP) == FLIPPED


def test_handler_exception_closes_only_its_connection(server, clients,
                                                      monkeypatch, caplog):
    handle_line = QpfService.handle_line

    def explosive(self, line):
        if "boom" in line:
            raise RuntimeError("handler fell over")
        return handle_line(self, line)

    monkeypatch.setattr(QpfService, "handle_line", explosive)
    good, bad = clients(), clients()
    with caplog.at_level(logging.WARNING, logger="qetsim.service"):
        bad.send(b'{"boom": 1}\n')
        assert bad.at_end()
    assert "handler fell over" in caplog.text
    assert good.ask(FLIP) == FLIPPED
    assert clients().ask({"type": "capacity"})["type"] == "capacity"


def test_four_concurrent_clients_get_their_bits(clients):
    connections = [clients() for _ in range(4)]
    failures = []

    def run(k, client):
        # client k flips its qubit k % 2 and reads back its own pattern
        ops = [{"op": "QET", "qubits": [k % 2], "theta": math.pi},
               {"op": "MEASURE", "qubits": [0]},
               {"op": "MEASURE", "qubits": [1]}]
        expected = {"type": "result",
                    "results": [{"qubit": 0, "bit": 1 - k % 2},
                                {"qubit": 1, "bit": k % 2}]}
        for _ in range(50):
            reply = client.ask({"type": "submit", "client": f"c{k}", "ops": ops})
            if reply != expected:
                failures.append((k, reply))

    threads = [threading.Thread(target=run, args=(k, client))
               for k, client in enumerate(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_server_runs_one_thread_for_all_connections(server, clients):
    before = threading.active_count()
    connections = [clients() for _ in range(4)]
    for client in connections:
        assert client.ask({"type": "capacity"})["type"] == "capacity"
    assert threading.active_count() == before
