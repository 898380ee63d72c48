"""The benchmark's own tests; every run calls them, and so can you:

    python3 perfbench/selftest.py

They check that inputs are a function of the seed (same seed, same
digest; another seed, another digest), that the output checks count a
corrupted reply, shot or oracle sample as a failure, and that the metric
names agree with BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import checks
import inputs


def _digest_problems() -> list[str]:
    out = []
    for workload in inputs.WORKLOADS:
        first = inputs.digest(inputs.generate(workload, 7))
        if inputs.digest(inputs.generate(workload, 7)) != first:
            out.append(f"{workload}: the same seed gave two digests")
        if inputs.digest(inputs.generate(workload, 8)) == first:
            out.append(f"{workload}: two seeds gave one digest")
    return out


def _good_reply(request: dict) -> dict:
    expect = request["expect"]
    if expect["kind"] == "invalid":
        return {"type": "error", "errors": [
            {"index": expect["error_index"], "message": f"... {expect['phrase']} ..."}]}
    bits = expect.get("bits", [0] * len(expect["qubits"]))
    return {"type": "result", "results": [{"qubit": q, "bit": b}
                                          for q, b in zip(expect["qubits"], bits)]}


def _reply_problems() -> list[str]:
    stream = inputs.generate("service_mix", 0)["connections"][0]
    classical = next(r for r in stream if r["expect"]["kind"] == "classical")
    invalid = next(r for r in stream if r["expect"]["kind"] == "invalid")
    out = []
    for request in (classical, invalid):
        if not checks.check_reply(request, _good_reply(request)):
            out.append(f"a correct {request['expect']['kind']} reply was counted as failed")
    flipped = _good_reply(classical)
    flipped["results"][0]["bit"] ^= 1
    leaked = {"type": "error", "errors": [
        {"index": 0, "message": "leakage decoding q0: physical pair read (1, 1)"}]}
    for name, request, reply in (("flipped bit", classical, flipped),
                                 ("leakage decode", classical, leaked),
                                 ("result for an invalid request", invalid,
                                  _good_reply(classical))):
        if checks.check_reply(request, reply):
            out.append(f"a corrupted reply ({name}) was counted as correct")
    return out


def _shot_chunk(pairs: list[tuple[int, ...]]) -> dict:
    lines, tally = [], {}
    for shot, bits in enumerate(pairs):
        key = "".join(map(str, bits))
        tally[key] = tally.get(key, 0) + 1
        lines.append(json.dumps({"type": "shot", "shot": shot, "results": [
            {"qubit": q, "bit": b} for q, b in enumerate(bits)]}))
    lines.append(json.dumps({"type": "aggregate", "shots": len(pairs),
                             "counts": tally}))
    return {"code": 0, "shots": len(pairs), "lines": lines}


def _shot_problems() -> list[str]:
    good = [(1, 0, 1, 0), (0, 1, 0, 1)] * 50
    out = []
    if checks.check_shots("bell_shots", [_shot_chunk(good)]) != (100, 0):
        out.append("correct Bell shots were counted as failed")
    leaked = good[:-1] + [(1, 1, 1, 0)]
    if checks.check_shots("bell_shots", [_shot_chunk(leaked)])[1] < 1:
        out.append("a Bell shot with an equal slot pair was counted as correct")
    ghz = [(1, 0) * 7, (0, 1) * 7]
    if checks.check_shots("ghz_ladder", [_shot_chunk(ghz)]) != (2, 0):
        out.append("correct GHZ shots were counted as failed")
    mixed = ghz[:1] + [(0, 1) * 6 + (1, 0)]
    if checks.check_shots("ghz_ladder", [_shot_chunk(mixed)]) != (2, 1):
        out.append("a GHZ shot with unequal logical bits was counted as correct")
    return out


def _oracle_problems() -> list[str]:
    good = {"convention": "ideal", "transfer_infidelity": 1e-16,
            "branch_phases": {n: [1.0, 0.0] for n in checks.PHYSICAL_PHASES},
            "term_fidelity": 1.0, "dynamics_error": [1e-12, 1e-12]}
    bad = copy.deepcopy(good)
    bad["transfer_infidelity"] = 1e-3
    out = []
    if checks.check_round(good) != (4, 0):
        out.append("a correct oracle round was counted as failed")
    if checks.check_round(bad)[1] != 1:
        out.append("an oracle round with infidelity 1e-3 was counted as correct")
    return out


def _declared_problems(root: Path, end_to_end, per_layer) -> list[str]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return []
    declared = json.loads(path.read_text(encoding="utf-8"))
    out = []
    for key, reported in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        listed = [(m["name"], m["unit"]) for m in declared[key]]
        if listed != list(reported):
            out.append(f"BENCHMARK.json {key} differs from what run.py reports")
    return out


def problems(root: Path, end_to_end, per_layer) -> list[str]:
    """Every self-test failure, as one line each; empty when all pass."""
    return (_digest_problems() + _reply_problems() + _shot_problems()
            + _oracle_problems() + _declared_problems(root, end_to_end, per_layer))


if __name__ == "__main__":
    import layers
    import run

    found = problems(Path.cwd(), run.END_TO_END, layers.metric_units())
    for line in found:
        print(f"FAIL {line}")
    print("self-test ok" if not found else f"{len(found)} self-test failure(s)")
    sys.exit(1 if found else 0)
