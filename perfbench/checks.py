"""Output checks for every workload.

Each check returns ``(attempted, failed)``; ``error_rate`` is their
ratio.  Expected rejections of deliberately invalid service requests are
successes; a leakage-decode reply is a failure.
"""

from __future__ import annotations

import json

BELL_EQUAL_SHARE = 0.98
BALANCE_MIN_SHOTS = 1000
BALANCE_RANGE = (0.4, 0.6)
IDEAL_INFIDELITY = 1e-9
PHASE_TOL = 1e-9
TERM_FIDELITY_TOL = 1e-9
RK4_TOL = 1e-6
PHYSICAL_PHASES = {"alpha": -1, "beta": 1, "gamma": 1j, "delta": 1}


def _logical_bits(results: list, slots: int) -> list[int] | None:
    """Logical bits read from slot pairs ``(2i, 2i+1)``; None on a bad pair."""
    if [entry.get("qubit") for entry in results] != list(range(slots)):
        return None
    bits = [entry.get("bit") for entry in results]
    if any(bit not in (0, 1) for bit in bits):
        return None
    pairs = list(zip(bits[0::2], bits[1::2]))
    if any(first == second for first, second in pairs):
        return None
    return [first for first, _ in pairs]


def check_shots(workload: str, chunks: list[dict]) -> tuple[int, int]:
    """Check every shot line and the aggregate line of every ``qetsim run``.

    Bell: each slot pair reads differing bits, at least 98 % of shots read
    equal logical bits and, over 1000 or more shots, the share of logical
    ones lies within 0.4-0.6.  GHZ: every shot reads all-equal logical bits.
    """
    slots = 4 if workload == "bell_shots" else 14
    attempted = failed = equal = ones = 0
    for chunk in chunks:
        shots = chunk["shots"]
        lines = [json.loads(line) for line in chunk["lines"]]
        shot_lines = [line for line in lines if line.get("type") == "shot"]
        tally: dict[str, int] = {}
        attempted += shots
        if chunk["code"] != 0 or len(shot_lines) != shots:
            failed += shots
            continue
        for index, line in enumerate(shot_lines):
            bits = _logical_bits(line.get("results", []), slots)
            if line.get("shot") != index or bits is None:
                failed += 1
                continue
            key = "".join(str(entry["bit"]) for entry in line["results"])
            tally[key] = tally.get(key, 0) + 1
            if workload == "ghz_ladder" and len(set(bits)) != 1:
                failed += 1
            equal += len(set(bits)) == 1
            ones += bits[0]
        aggregate = lines[-1] if lines else {}
        if (aggregate.get("type") != "aggregate" or aggregate.get("shots") != shots
                or aggregate.get("counts") != tally):
            failed += 1
    if workload == "bell_shots" and attempted:
        if equal < BELL_EQUAL_SHARE * attempted:
            failed += attempted - equal
        low, high = BALANCE_RANGE
        if attempted >= BALANCE_MIN_SHOTS and not low <= ones / attempted <= high:
            failed += 1
    return attempted, min(failed, attempted)


def check_reply(request: dict, reply: dict) -> bool:
    """Whether one service reply is what its request must get."""
    expect = request["expect"]
    if expect["kind"] == "invalid":
        errors = reply.get("errors")
        return (reply.get("type") == "error" and isinstance(errors, list)
                and len(errors) == 1
                and errors[0].get("index") == expect["error_index"]
                and expect["phrase"] in str(errors[0].get("message", "")))
    results = reply.get("results")
    if reply.get("type") != "result" or not isinstance(results, list):
        return False
    if [entry.get("qubit") for entry in results] != expect["qubits"]:
        return False
    bits = [entry.get("bit") for entry in results]
    if any(bit not in (0, 1) for bit in bits):
        return False
    return expect["kind"] != "classical" or bits == expect["bits"]


def check_round(sample: dict) -> tuple[int, int]:
    """Compared and failed samples in one oracle round.

    A round compares one random protocol input against the gate matrix,
    the dense trajectory of one input against term rewriting, and RK4
    against the closed form on each dynamics input.
    """
    phases = {name: complex(*value) for name, value in sample["branch_phases"].items()}
    if sample["convention"] == "ideal":
        expected = dict.fromkeys(PHYSICAL_PHASES, 1)
        transfer_ok = sample["transfer_infidelity"] <= IDEAL_INFIDELITY
    else:
        expected = PHYSICAL_PHASES
        transfer_ok = True
    phases_ok = set(phases) == set(expected) and all(
        abs(phases[name] - expected[name]) <= PHASE_TOL for name in expected)
    failed = int(not (transfer_ok and phases_ok))
    failed += not sample["term_fidelity"] >= 1.0 - TERM_FIDELITY_TOL
    failed += sum(not error <= RK4_TOL for error in sample["dynamics_error"])
    return 2 + len(sample["dynamics_error"]), failed


def check_rounds(rounds: list[dict]) -> tuple[int, int]:
    counts = [check_round(sample) for sample in rounds]
    return sum(n for n, _ in counts), sum(f for _, f in counts)
