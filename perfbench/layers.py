"""Per-layer metrics from the spans a traced worker wrote.

Self time is a span's duration minus the durations of its child spans
(children of one span run in its own thread, one after another, so they
never overlap) minus the time the tracer's own probes took inside it.
Every ``.s`` metric is self seconds per op and every ``.n`` calls per op,
where an op is what ``ops_per_s`` counts on the workload: a shot, a
request or an oracle sample.  Spans count when they start inside the
measured window.  A layer the workload never reaches reads 0.
"""

from __future__ import annotations

import json

import numpy as np

from tracer import FIELDS, OPCODES

COL = {field: index for index, field in enumerate(FIELDS)}

TIMED = (
    ["isa.parse", "isa.validate",
     "compiler.parse_logical", "compiler.transform_program"]
    + [f"machine.exec.{op}" for op in OPCODES]
    + ["machine.run_program", "statevector.apply_local", "statevector.measure",
       "service.handle", "service.pump", "service.reply_wait",
       "service.parse_ops", "service.analyze",
       "service.transform", "service.batch", "service.dispatch",
       "service.backend_run", "service.demux", "service.encode",
       "protocol.run_protocol", "protocol.frame_vector",
       "protocol.step_term_trace",
       "dynamics.integrate_two_level", "dynamics.rabi_coefficients"])

COUNTERS = (
    ("isa.instructions", "count"),
    ("compiler.emitted_instructions", "count"),
    ("machine.instr_per_shot", "count"),
    ("machine.register_amps", "count"),
    ("machine.nonzero_amps_peak", "count"),
    ("machine.support_ratio", "ratio"),
    ("statevector.bytes_moved", "B/op"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.segments_per_batch", "count"),
    ("service.batch_fill", "ratio"),
    ("service.rejected", "1/op"),
    ("service.leakage_decodes", "count"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in TIMED:
        out += [(f"{name}.s", "s/op"), (f"{name}.n", "1/op")]
    out += [(f"machine.exec.{op}.incl_s", "s/op") for op in OPCODES]
    return out + list(COUNTERS)


def load(path: str) -> tuple[np.ndarray, list[str]]:
    rows = np.load(path + ".npy")
    with open(path + ".json", encoding="utf-8") as handle:
        names = json.load(handle)["names"]
    return rows, names


def self_times(rows: np.ndarray) -> np.ndarray:
    if not len(rows):
        return np.zeros(0)
    duration = rows[:, COL["end"]] - rows[:, COL["start"]]
    sid = rows[:, COL["sid"]]
    order = np.argsort(sid)
    parent = rows[:, COL["parent"]]
    position = np.searchsorted(sid[order], parent).clip(0, len(sid) - 1)
    found = (parent >= 0) & (sid[order][position] == parent)
    children = np.zeros(len(rows))
    np.add.at(children, order[position[found]], duration[found])
    return duration - children - rows[:, COL["excl"]]


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rows: np.ndarray, names: list[str], window: list[float],
                  ops: int, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric over the spans that start inside ``window``."""
    own = self_times(rows)
    start = rows[:, COL["start"]]
    inside = (start >= window[0]) & (start < window[1])
    rows, own = rows[inside], own[inside]
    name_col = rows[:, COL["name"]].astype(int)
    ids = {name: index for index, name in enumerate(names)}

    def pick(*span_names: str) -> np.ndarray:
        wanted = [ids[name] for name in span_names if name in ids]
        return np.isin(name_col, wanted)

    def column(mask: np.ndarray, field: str) -> np.ndarray:
        return rows[mask, COL[field]]

    def mean(values: np.ndarray) -> float:
        return float(values.mean()) if len(values) else 0.0

    per_op = 1.0 / ops
    out: dict[str, float] = {}
    for name in TIMED:
        mask = pick(name)
        out[f"{name}.s"] = float(own[mask].sum()) * per_op
        out[f"{name}.n"] = float(mask.sum()) * per_op
    for op in OPCODES:
        mask = pick(f"machine.exec.{op}")
        inclusive = column(mask, "end") - column(mask, "start") - column(mask, "excl")
        out[f"machine.exec.{op}.incl_s"] = float(inclusive.sum()) * per_op

    executed = pick(*(f"machine.exec.{op}" for op in OPCODES))
    nonzero, allocated = column(executed, "a"), column(executed, "b")
    batches = pick("service.batch")
    filled = column(batches, "a") > 0
    waits = pick("service.queue_wait")
    out.update({
        "isa.instructions": mean(column(pick("isa.parse", "isa.validate"), "a")),
        "compiler.emitted_instructions":
            mean(column(pick("compiler.transform_program"), "a")),
        "machine.instr_per_shot": mean(column(pick("machine.run_program"), "a")),
        "machine.register_amps": float(allocated.max()) if len(allocated) else 0.0,
        "machine.nonzero_amps_peak": float(nonzero.max()) if len(nonzero) else 0.0,
        "machine.support_ratio":
            float(nonzero.sum() / allocated.sum()) if allocated.sum() else 0.0,
        "statevector.bytes_moved": float(column(
            pick("statevector.apply_local", "statevector.measure"), "a").sum()) * per_op,
        "service.queue_wait_ms.p50": 1e3 * _percentile(
            column(waits, "end") - column(waits, "start"), 50),
        "service.queue_wait_ms.p99": 1e3 * _percentile(
            column(waits, "end") - column(waits, "start"), 99),
        "service.segments_per_batch": mean(column(batches, "a")[filled]),
        "service.batch_fill": mean(column(batches, "b")[filled]),
        "service.rejected":
            float(column(pick("service.parse_ops", "service.analyze"), "a").sum())
            * per_op,
        "service.leakage_decodes": float(column(pick("service.demux"), "a").sum()),
        "trace.overhead_pct": overhead_pct,
    })
    return out
