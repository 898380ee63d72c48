"""qetsim benchmark: one workload, one seed, one run.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload bell_shots --seed 1 --seconds 10 --trace 0

Workloads: ``bell_shots`` and ``ghz_ladder`` (``qetsim run`` shots),
``service_mix`` (a ``qetsim serve`` socket server driven by two closed-loop
connections) and ``oracle_verify`` (the physics oracle).  The program
runs in worker processes that import qetsim from ``./src``; this process
generates the inputs from the seed, checks every output and computes the
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from a traced
worker, plus the tracing overhead against an untraced worker of the same
run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
from itertools import count
from pathlib import Path
from time import monotonic

import checks
import inputs as workload_inputs
import layers
import selftest
from reference import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

# The latency tail is printed on the summary lines but not gated: on the
# shared baseline host its spread over ten seeds reached 0.29 on
# bell_shots and 0.83 on oracle_verify, past the largest bound allowed.
END_TO_END = (("norm_ops_per_s", "1/s"), ("norm_latency_p50_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_rate", "ratio"))

# Per workload: the names the summary lines use, the percentile reported
# as the latency tail (p75 on ghz_ladder, which measures about 70 shots a
# run), the warm-up before measuring, how many ops run between two
# reference timings (the service every SERVICE_SLICE_S), and
# which reference matches the workload's dominant cost (reference.py).
PROFILE = {
    "bell_shots": {"rate": "shots_per_s", "latency": "shot", "tail": 99,
                   "warmup_s": 1.0, "ref_every": 4, "reference": "interpreter"},
    "ghz_ladder": {"rate": "shots_per_s", "latency": "shot", "tail": 75,
                   "warmup_s": 2.0, "ref_every": 1, "reference": "arrays"},
    "service_mix": {"rate": "req_per_s", "latency": "req", "tail": 99,
                    "warmup_s": 1.0, "reference": "interpreter"},
    "oracle_verify": {"rate": "samples_per_s", "latency": "round", "tail": 99,
                      "warmup_s": 0.5, "ref_every": 8,
                      "reference": "interpreter"},
}

# Cold starts per run for setup_s: the measured worker, with half of the
# others before it and half after, so that they sample the host across
# the whole run.  Set-up is reported raw: a reference timed next to a
# start of half a second did not track it, and scaling by one made its
# spread larger.
SETUP_STARTS = 9
SERVICE_SLICE_S = 0.5  # service load between two reference timings
WORKER_TIMEOUT_S = 60.0
SOCKET_TIMEOUT_S = 20.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A worker failed in a way no output check can express."""


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment(root: Path) -> dict:
    """Machine, thread settings, library versions and source identity."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "commit": commit,
            "src_sha256": source.hexdigest()}


class Bench:
    """One run of one workload: workers, checks and metrics."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.profile = PROFILE[workload]
        self.nominal_s = NOMINAL_S[self.profile["reference"]]
        self.inputs = workload_inputs.generate(workload, seed)
        self.out = HERE / "out"
        self.out.mkdir(exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, int] = {}
        self.raw: dict[str, float] = {}
        self.errors: list[str] = []  # failures no output check saw, such as a lost connection
        self._tags = count()
        self._live: list[subprocess.Popen] = []

    # -- worker processes ---------------------------------------------------

    def start(self, kind: str, trace: bool = False, stdout=subprocess.DEVNULL,
              **fields):
        tag = f"{self.workload}-{next(self._tags)}"
        spec = {"kind": kind, "src": str(self.root / "src"), "trace": trace,
                "reference": self.profile["reference"],
                "result_path": str(self.out / f"{tag}.result.json"),
                "trace_path": str(self.out / f"{tag}.trace"),
                "log_path": str(self.out / f"{tag}.log"), **fields}
        spec_path = self.out / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        Path(spec["result_path"]).unlink(missing_ok=True)
        with open(spec["log_path"], "w", encoding="utf-8") as log:
            spawned = monotonic()
            proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)],
                                    cwd=self.root, stdout=stdout, stderr=log)
        self._live.append(proc)
        return proc, spec, spawned

    def finish(self, proc: subprocess.Popen, spec: dict) -> dict:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            self._reap(proc)
        if code != 0:
            raise BenchError(f"{spec['kind']} worker exited with {code}; "
                             f"see {spec['log_path']}")
        with open(spec["result_path"], encoding="utf-8") as handle:
            return json.load(handle)

    def _reap(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._live.remove(proc)

    def close(self) -> None:
        for proc in list(self._live):
            self._reap(proc)

    def add_checked(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    # -- workloads -------------------------------------------------------------

    def _worker_fields(self) -> tuple[str, dict]:
        if self.workload == "oracle_verify":
            return "oracle", {"rounds": self.inputs["rounds"]}
        program = self.out / self.inputs["file"]
        program.write_text(self.inputs["program"], encoding="utf-8")
        return "shots", {"program_path": str(program),
                         "chunk_shots": self.inputs["chunk_shots"],
                         "run_seeds": self.inputs["run_seeds"]}

    def _check_ops(self, ops: list[dict]) -> None:
        if self.workload == "oracle_verify":
            self.add_checked(*checks.check_rounds(ops))
        else:
            self.add_checked(*checks.check_shots(self.workload, ops))

    def local_run(self, seconds: float, trace: bool = False, probe: bool = False):
        """One shot or oracle worker; returns (result, spawn time, spec)."""
        kind, fields = self._worker_fields()
        fields["ref_every"] = self.profile["ref_every"]
        if probe:
            fields.update(limit=1, warmup_s=0.0, seconds=0.0)
            if kind == "shots":
                fields["chunk_shots"] = 1
        else:
            fields.update(warmup_s=self.profile["warmup_s"], seconds=seconds)
        proc, spec, spawned = self.start(kind, trace=trace, **fields)
        result = self.finish(proc, spec)
        self._check_ops(result["ops"])
        return result, spawned, spec

    def local_stats(self, result: dict) -> Stats:
        """Slices of measured ops, each ending in a reference timing."""
        stats = Stats()
        for ops, speed in _slices(result["ops"], self.nominal_s):
            if any(op["phase"] != "measure" for op in ops):
                continue
            busy = sum(op["end"] - op["start"] for op in ops)
            if self.workload == "oracle_verify":
                done = sum(checks.check_round(op)[0] for op in ops)
                latencies = [op["end"] - op["start"] for op in ops]
            else:
                done = sum(op["shots"] for op in ops)
                latencies = []
                for op in ops:
                    previous = op["start"]
                    for stamp in op["stamps"][:op["shots"]]:
                        latencies.append(stamp - previous)
                        previous = stamp
            stats.add_slice(ops[0]["start"], ops[-1]["end"], done, busy, speed,
                            latencies)
        return stats

    def serve_run(self, seconds: float, trace: bool = False, probe: bool = False):
        """One server; returns (stats, spawn time, first reply, result, spec)."""
        connections = self.inputs["connections"]
        proc, spec, spawned = self.start("serve", trace=trace,
                                         stdout=subprocess.PIPE,
                                         server_seed=self.inputs["server_seed"])
        try:
            kind = self.profile["reference"]
            load = SlicedLoad(_listening_address(proc), connections,
                              lambda: reference_seconds(kind))
            if probe:
                load.probe()
            else:
                load.run(self.profile["warmup_s"], seconds)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        result = self.finish(proc, spec)
        self.add_checked(len(load.errors), len(load.errors))
        self.errors += load.errors
        for stream, log in zip(connections, load.logs):
            for index, _, _, line in log:
                try:
                    ok = checks.check_reply(stream[index], json.loads(line))
                except ValueError:
                    ok = False
                self.add_checked(1, int(not ok))
        first = min((log[0][2] for log in load.logs if log), default=None)
        if first is None:
            raise BenchError(f"the server sent no reply: {load.errors}")
        stats = Stats()
        for piece, speed in zip(load.slices, _speeds(load.slices, self.nominal_s)):
            if piece["phase"] != "measure":
                continue
            replies = [(stream[index], sent, received)
                       for stream, log in zip(connections, load.logs)
                       for index, sent, received, _ in log
                       if piece["start"] <= received <= piece["end"]]
            stats.add_slice(piece["start"], piece["end"], len(replies),
                            piece["end"] - piece["start"], speed,
                            [received - sent for request, sent, received in replies
                             if request["expect"]["kind"] != "invalid"])
        return stats, spawned, first, result, spec

    # -- the two kinds of run -----------------------------------------------

    def run(self, seconds: float, trace: bool = False, probe: bool = False):
        """(stats, setup seconds, worker result, spec) of one worker."""
        if self.workload == "service_mix":
            stats, spawned, first, result, spec = self.serve_run(seconds, trace, probe)
        else:
            result, spawned, spec = self.local_run(seconds, trace, probe)
            stats = self.local_stats(result)
            first = result["ops"][0]["end"]
            if self.workload != "oracle_verify":
                first = result["ops"][0]["stamps"][0]
        return stats, first - spawned, result, spec

    def end_to_end(self) -> dict[str, float]:
        setups = [self.run(0.0, probe=True)[1]
                  for _ in range((SETUP_STARTS - 1) // 2)]
        stats, setup, result, _ = self.run(self.seconds)
        setups.append(setup)
        setups += [self.run(0.0, probe=True)[1]
                   for _ in range(SETUP_STARTS - len(setups))]
        tail = self.profile["tail"]
        self.samples = {"latency": len(stats.latencies), "slices": len(stats.rates),
                        "setup": len(setups), "ops": stats.ops}
        self.raw = {"ops_per_s": stats.rate(normalized=False),
                    "latency_p50_ms": stats.latency_ms(50, normalized=False),
                    "latency_tail_ms": stats.latency_ms(tail, normalized=False),
                    "norm_latency_tail_ms": stats.latency_ms(tail),
                    "machine_speed": stats.median_speed()}
        return {
            "norm_ops_per_s": stats.rate(),
            "norm_latency_p50_ms": stats.latency_ms(50),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "ok_rate": 1.0 - self.failed / max(self.attempted, 1),
        }

    def per_layer(self) -> dict[str, float]:
        half = self.seconds / 2.0
        plain = self.run(half)[0]
        traced, _, _, spec = self.run(half, trace=True)
        overhead = 100.0 * (plain.rate() / traced.rate() - 1.0) if traced.rate() else 0.0
        rows, names = layers.load(spec["trace_path"])
        self.samples = {"ops_traced": traced.ops, "spans": len(rows)}
        return layers.layer_metrics(rows, names, traced.window,
                                    max(traced.ops, 1), overhead)


class Stats:
    """Per-slice throughput and per-op latency, raw and normalized.

    A slice at machine speed ``speed`` (see reference.py) that did ``done``
    ops in ``busy`` seconds has normalized rate ``done / busy / speed``;
    each of its latencies normalizes to ``latency * speed``.
    """

    def __init__(self):
        self.window: list[float] = []
        self.rates: list[tuple[float, float]] = []
        self.latencies: list[tuple[float, float]] = []
        self.ops = 0

    def add_slice(self, start: float, end: float, done: int, busy: float,
                  speed: float, latencies: list[float]) -> None:
        self.window = [self.window[0] if self.window else start, end]
        if busy > 0:
            self.rates.append((done / busy, speed))
        self.latencies += [(latency, speed) for latency in latencies]
        self.ops += done

    def rate(self, normalized: bool = True) -> float:
        """Median slice throughput."""
        values = [rate / speed if normalized else rate for rate, speed in self.rates]
        return statistics.median(values) if values else 0.0

    def latency_ms(self, q: float, normalized: bool = True) -> float:
        return 1e3 * _percentile([latency * speed if normalized else latency
                                  for latency, speed in self.latencies], q)

    def median_speed(self) -> float:
        return statistics.median(speed for _, speed in self.rates) if self.rates else 0.0


def _speeds(pieces: list[dict], nominal_s: float) -> list[float]:
    """Machine speed of each slice: from the reference timings on both sides."""
    out, previous = [], None
    for piece in pieces:
        ref = piece["ref_s"] if previous is None else (previous + piece["ref_s"]) / 2
        out.append(nominal_s / ref)
        previous = piece["ref_s"]
    return out


def _slices(ops: list[dict], nominal_s: float) -> list[tuple[list[dict], float]]:
    """Consecutive ops up to each reference timing, with their machine speed."""
    groups, current = [], []
    for op in ops:
        current.append(op)
        if "ref_s" in op:
            groups.append(current)
            current = []
    speeds = _speeds([group[-1] for group in groups], nominal_s)
    return list(zip(groups, speeds))


def _listening_address(proc: subprocess.Popen) -> tuple[str, int]:
    """The address from the server's ``listening on HOST:PORT`` line."""
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
    line = proc.stdout.readline().decode("utf-8", "replace") if ready else ""
    match = re.match(r"listening on (\S+):(\d+)", line)
    if not match:
        raise BenchError(f"unexpected line from the server: {line!r}")
    return match.group(1), int(match.group(2))


class SlicedLoad:
    """Closed-loop clients, one per connection, run in slices.

    Each client sends its next request only after the reply to the last
    one.  Between slices every client parks (after its in-flight reply)
    while this process times the reference and the server is idle.
    """

    def __init__(self, address: tuple[str, int], streams: list[list[dict]],
                 reference):
        self.address = address
        self.encoded = [[json.dumps(item["message"]).encode("utf-8") + b"\n"
                         for item in stream] for stream in streams]
        self.reference = reference
        self.logs: list[list] = [[] for _ in streams]
        self.errors: list[str] = []
        self.slices: list[dict] = []
        self._barrier = threading.Barrier(len(streams) + 1)
        self._slice_end = 0.0
        self._stop = False

    def _exchange(self, conn, reader, encoded, sent_count, log) -> None:
        index = sent_count % len(encoded)
        sent = monotonic()
        conn.sendall(encoded[index])
        line = reader.readline()
        if not line:
            raise OSError("server closed the connection")
        log.append((index, sent, monotonic(), line))

    def probe(self) -> None:
        """One request on one connection, for the set-up time."""
        try:
            with socket.create_connection(self.address, timeout=SOCKET_TIMEOUT_S) as conn, \
                    conn.makefile("rb") as reader:
                self._exchange(conn, reader, self.encoded[0], 0, self.logs[0])
        except OSError as exc:
            self.errors.append(str(exc))

    def _client(self, k: int) -> None:
        encoded, log = self.encoded[k], self.logs[k]
        try:
            with socket.create_connection(self.address, timeout=SOCKET_TIMEOUT_S) as conn, \
                    conn.makefile("rb") as reader:
                sent_count = 0
                while True:
                    self._barrier.wait(SOCKET_TIMEOUT_S)
                    if self._stop:
                        return
                    while monotonic() < self._slice_end:
                        self._exchange(conn, reader, encoded, sent_count, log)
                        sent_count += 1
                    self._barrier.wait(SOCKET_TIMEOUT_S)
        except (OSError, threading.BrokenBarrierError) as exc:
            self.errors.append(f"client {k}: {exc!r}")
            self._barrier.abort()

    def run(self, warmup: float, seconds: float) -> None:
        threads = [threading.Thread(target=self._client, args=(k,))
                   for k in range(len(self.encoded))]
        for thread in threads:
            thread.start()
        begin = monotonic()
        stopped = False
        try:
            while (start := monotonic()) < begin + warmup + seconds:
                self._slice_end = start + SERVICE_SLICE_S
                self._barrier.wait(SOCKET_TIMEOUT_S)
                self._barrier.wait(SOCKET_TIMEOUT_S)
                end = monotonic()
                self.slices.append({
                    "phase": "warmup" if start < begin + warmup else "measure",
                    "start": start, "end": end, "ref_s": self.reference()})
            self._stop = True
            self._barrier.wait(SOCKET_TIMEOUT_S)
            stopped = True
        except threading.BrokenBarrierError:
            self.errors.append("the load stopped early")
        finally:
            if not stopped:
                self._barrier.abort()  # release clients parked at the barrier
            for thread in threads:
                thread.join(2 * SOCKET_TIMEOUT_S)


def _summary_lines(workload: str, values: dict[str, float], bench: Bench) -> list[str]:
    """Human-readable lines with the per-workload metric names, raw first."""
    profile = PROFILE[workload]
    latency, tail, raw = profile["latency"], profile["tail"], bench.raw
    error_rate = bench.failed / max(bench.attempted, 1)
    return [
        f"{profile['rate']} {raw['ops_per_s']:.6g} 1/s "
        f"(normalized {values['norm_ops_per_s']:.6g})",
        f"{latency}_p50_ms {raw['latency_p50_ms']:.6g} ms "
        f"(normalized {values['norm_latency_p50_ms']:.6g})",
        f"{latency}_p{tail}_ms {raw['latency_tail_ms']:.6g} ms "
        f"(normalized {raw['norm_latency_tail_ms']:.6g})",
        f"machine_speed {raw['machine_speed']:.4g} (median over slices)",
        f"setup_s {values['setup_s']:.6g} s (median of {SETUP_STARTS} cold starts)",
        f"peak_rss_mb {values['peak_rss_mb']:.6g} MB",
        f"error_rate {error_rate:.6g} ({bench.failed} of {bench.attempted})",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qetsim" / "__init__.py").is_file():
        print("error: run from the root of a qetsim source tree "
              "(src/qetsim not found)", file=sys.stderr)
        return 2
    problems = selftest.problems(root, END_TO_END, layers.metric_units())
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        bench.close()
    units = dict(layers.metric_units() if args.trace else END_TO_END)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workload_inputs.digest(bench.inputs),
        "environment": environment(root), "samples": bench.samples,
        "attempted": bench.attempted, "failed": bench.failed,
        "selftest_problems": problems, "load_errors": bench.errors,
        "metrics": values, "raw": bench.raw,
    }
    with open(HERE / "out" / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs sha256 {record['inputs_sha256']}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# samples {json.dumps(bench.samples)}")
    for problem in problems:
        print(f"# self-test failed: {problem}")
    for error in bench.errors:
        print(f"# load error: {error}")
    if not args.trace:
        for line in _summary_lines(args.workload, values, bench):
            print(line)
    print(json.dumps({
        "correct": bench.attempted > 0 and bench.failed == 0 and not problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
