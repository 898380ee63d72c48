"""Seeded inputs for the four benchmark workloads, and their digest.

Everything a workload feeds to the program under test is generated
here from the ``--seed`` argument with :class:`random.Random`, so the
same seed gives byte-identical inputs on every commit.  The digest of
the generated inputs is recorded with each result, so two runs can be
shown to have seen the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("bell_shots", "ghz_ladder", "service_mix", "oracle_verify")

BELL_PROGRAM = """LQ n=2
RX 1.5707963267948966 q0
CNOT q0 q1
MEASURE q0
MEASURE q1
"""

GHZ_QUBITS = 7

SERVICE_CLIENTS = tuple(f"client{i}" for i in range(6))
SERVICE_LOCALS = 5  # client-local qubit addresses 0..4
SERVICE_CONNECTIONS = 2
SERVICE_REQUESTS_PER_CONNECTION = 2000
# Every block of 40 requests holds exactly this mix, shuffled by the seed,
# so the share of wide and invalid requests is the same for every seed.
SERVICE_BLOCK = (("wide", 1), ("invalid", 4), ("classical", 17), ("random", 18))

ORACLE_ROUNDS = 2000
ORACLE_DYNAMICS_PER_ROUND = 2

RUN_SEEDS = 400


def ghz_program(n: int) -> str:
    """Logical text of ``RX(pi/2) q0; CNOT q0 q1; ...; CNOT q(n-2) q(n-1)``."""
    lines = [f"LQ n={n}", f"RX {math.pi / 2!r} q0"]
    lines += [f"CNOT q{q} q{q + 1}" for q in range(n - 1)]
    lines += [f"MEASURE q{q}" for q in range(n)]
    return "\n".join(lines) + "\n"


def _angle(rng: random.Random, classical: bool) -> float:
    if classical:
        return rng.randint(-3, 3) * math.pi
    return rng.uniform(-math.pi, math.pi)


def classical_bits(ops: list[dict]) -> dict[int, int]:
    """Logical bits of a request whose angles are all multiples of pi.

    Every touched qubit starts as logical 0.  ``QET(k pi)`` flips the
    bit for odd ``k``; ``PHASE`` never changes it; ``CQET`` transfers the
    target's excitation, a logical flip, when the control reads 0.
    """
    bits: dict[int, int] = {}
    for op in ops:
        for q in op["qubits"]:
            bits.setdefault(q, 0)
        if op["op"] == "QET" and round(op["theta"] / math.pi) % 2:
            bits[op["qubits"][0]] ^= 1
        elif op["op"] == "CQET" and bits[op["qubits"][0]] == 0:
            bits[op["qubits"][1]] ^= 1
    return bits


def _gate_ops(rng: random.Random, qubits: list[int], count: int,
              classical: bool) -> list[dict]:
    ops = []
    for _ in range(count):
        kinds = ("QET", "PHASE", "CQET") if len(qubits) > 1 else ("QET", "PHASE")
        kind = rng.choice(kinds)
        if kind == "CQET":
            ops.append({"op": "CQET", "qubits": rng.sample(qubits, 2)})
        elif kind == "QET":
            ops.append({"op": "QET", "qubits": [rng.choice(qubits)],
                        "theta": _angle(rng, classical)})
        else:
            ops.append({"op": "PHASE", "qubits": [rng.choice(qubits)],
                        "theta": _angle(rng, classical),
                        "phi": _angle(rng, classical)})
    return ops


def _invalid_op(rng: random.Random, qubits: list[int]) -> tuple[dict, str]:
    """One deliberately bad operation and a phrase its error must contain."""
    flaw = rng.choice(("arity", "theta", "cqet1"))
    q = rng.choice(qubits)
    if flaw == "arity":
        other = (q + 1) % SERVICE_LOCALS
        return ({"op": "QET", "qubits": [q, other],
                 "theta": _angle(rng, False)}, "takes 1 qubit")
    if flaw == "theta":
        return {"op": rng.choice(("QET", "PHASE")), "qubits": [q]}, "theta"
    return {"op": "CQET", "qubits": [q]}, "takes 2 qubit"


def service_request(rng: random.Random, kind: str) -> dict:
    """A submit message and what its reply must look like."""
    client = rng.choice(SERVICE_CLIENTS)
    if kind == "wide":
        qubits = list(range(SERVICE_LOCALS))
        ops = _gate_ops(rng, qubits, rng.randint(8, 12), classical=False)
    else:
        qubits = rng.sample(range(SERVICE_LOCALS), rng.randint(1, 3))
        ops = _gate_ops(rng, qubits, rng.randint(1, 4),
                        classical=kind == "classical")
    expect: dict = {"kind": kind, "qubits": list(qubits)}
    if kind == "invalid":
        index = rng.randrange(len(ops) + 1)
        bad, phrase = _invalid_op(rng, qubits)
        ops.insert(index, bad)
        expect.update(error_index=index, phrase=phrase)
    elif kind == "classical":
        bits = classical_bits(ops)
        expect["bits"] = [bits.get(q, 0) for q in qubits]
    ops += [{"op": "MEASURE", "qubits": [q]} for q in qubits]
    return {"message": {"type": "submit", "client": client, "ops": ops},
            "expect": expect}


def _service_stream(rng: random.Random, count: int) -> list[dict]:
    out = []
    while len(out) < count:
        kinds = [kind for kind, n in SERVICE_BLOCK for _ in range(n)]
        rng.shuffle(kinds)
        out += [service_request(rng, kind) for kind in kinds]
    return out[:count]


def _unit_vector(rng: random.Random, size: int) -> list[float]:
    """Interleaved real and imaginary parts of a random unit vector."""
    raw = [rng.gauss(0.0, 1.0) for _ in range(2 * size)]
    norm = math.sqrt(sum(x * x for x in raw))
    return [x / norm for x in raw]


def _dynamics_params(rng: random.Random) -> dict:
    radius, angle = rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi)
    return {"state": _unit_vector(rng, 2),
            "kappa": [radius * math.cos(angle), radius * math.sin(angle)],
            "omega_a": rng.uniform(-1.0, 1.0),
            "omega_b": rng.uniform(-1.0, 1.0),
            "t": rng.uniform(0.2, 2.0)}


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bell_shots":
        return {"file": "bell.lq", "program": BELL_PROGRAM, "chunk_shots": 50,
                "run_seeds": [rng.randrange(2 ** 31) for _ in range(RUN_SEEDS)]}
    if workload == "ghz_ladder":
        return {"file": "ghz7.lq", "program": ghz_program(GHZ_QUBITS),
                "chunk_shots": 2,
                "run_seeds": [rng.randrange(2 ** 31) for _ in range(RUN_SEEDS)]}
    if workload == "service_mix":
        return {"server_seed": rng.randrange(2 ** 31),
                "connections": [_service_stream(rng, SERVICE_REQUESTS_PER_CONNECTION)
                                for _ in range(SERVICE_CONNECTIONS)]}
    rounds = []
    for index in range(ORACLE_ROUNDS):
        rounds.append({
            "convention": ("ideal", "physical")[index % 2],
            "verify_seed": rng.randrange(2 ** 31),
            "term_input": _unit_vector(rng, 4),
            "dynamics": [_dynamics_params(rng)
                         for _ in range(ORACLE_DYNAMICS_PER_ROUND)]})
    return {"rounds": rounds}


def digest(inputs: dict) -> str:
    """SHA-256 of the canonical JSON form of generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
