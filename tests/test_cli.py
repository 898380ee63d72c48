import io
import json
import math
import os
import re
import select
import signal
import socket
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qetsim
from qetsim import isa
from qetsim.cli import build_parser, main
from qetsim.isa import parse_program_with_lines
from qetsim.service import QpfService, parse_client_ops, transform

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

PHYSICAL_OK = ("QPU s=2\n"
               "INIT m0 0\nINIT m1 1\n"
               "LOAD m0 c1\nLOAD m1 c2\n"
               "QET 3.141592653589793\n"
               "SAVE c1 m0\nSAVE c2 m1\n"
               "MEASURE m0\nMEASURE m1\n")

LOGICAL_PLUS = ("LQ n=1\n"
                "RX 1.5707963267948966 q0\n"
                "MEASURE q0\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "ok.qpu", PHYSICAL_OK)
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_missing_theta_cites_line(tmp_path, capsys):
    path = _write(tmp_path, "bad.qpu", "QPU s=1\nINIT m0 0\nQET\nMEASURE m0\n")
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "line 3" in out and "theta" in out


def test_validate_unknown_opcode(tmp_path, capsys):
    path = _write(tmp_path, "bad2.qpu", "QPU s=1\nFROB m0\n")
    assert main(["validate", path]) == 1


def test_validate_semantic_issue_cites_line(tmp_path, capsys):
    path = _write(tmp_path, "sem.qpu", "QPU s=1\nMEASURE m0\n")
    assert main(["validate", path]) == 1
    assert "line 2" in capsys.readouterr().out


def test_validate_logical_file(tmp_path, capsys):
    path = _write(tmp_path, "prog.lq", LOGICAL_PLUS)
    assert main(["validate", path]) == 0


def test_validate_unreadable_file(capsys):
    assert main(["validate", "/nonexistent/prog.qpu"]) == 1


@pytest.mark.parametrize("command", ["validate", "run", "compile"])
def test_non_utf8_file_is_an_error_not_a_traceback(tmp_path, capsys, command):
    path = tmp_path / "bad.qpu"
    path.write_bytes(b"QPU s=1\n\xff\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decode" in err


# one digit past the most that int() reads from text (Python 3.10.7 and on)
LONG = "1" * (max(4300, getattr(sys, "get_int_max_str_digits", int)()) + 1)


# (file, its text, the reader's refusal) for a header value and an operand
TOO_LONG = {
    "header.qpu": (f"QPU s={LONG}\nINIT m0 0\n", f"line 1: bad header "
                   f"'s={LONG}': s must be a non-negative integer"),
    "header.lq": (f"LQ n={LONG}\nMEASURE q0\n", f"line 1: bad header "
                  f"'n={LONG}': n must be a non-negative integer"),
    "slot.qpu": (f"QPU s=1\nINIT m{LONG} 0\n",
                 f"line 2: expected memory_addr like 'm0', got 'm{LONG}'"),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter reads integers of any length")
@pytest.mark.parametrize("command, name", [
    (command, name) for name in TOO_LONG
    for command in ("validate", "run", "compile")
    if command != "compile" or name.endswith(".lq")])
def test_integer_past_the_digit_limit_is_refused_at_its_line(
        tmp_path, capsys, command, name):
    text, message = TOO_LONG[name]
    assert main([command, _write(tmp_path, name, text)]) == 1
    assert capsys.readouterr() == (message + "\n", "")


def test_run_deterministic_zeros(tmp_path, capsys):
    path = _write(tmp_path, "init.qpu", "QPU s=1\nINIT m0 0\nMEASURE m0\n")
    assert main(["run", path, "--shots", "5", "--output", "machine"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.strip().splitlines()]
    shots = [r for r in records if r["type"] == "shot"]
    assert len(shots) == 5
    assert all(r["results"] == [{"qubit": 0, "bit": 0}] for r in shots)
    aggregate = records[-1]
    assert aggregate == {"type": "aggregate", "shots": 5, "counts": {"0": 5}}


def test_run_same_seed_identical_output(tmp_path, capsys):
    path = _write(tmp_path, "prog.qpu", PHYSICAL_OK)
    main(["run", path, "--seed", "9", "--shots", "20", "--output", "machine"])
    first = capsys.readouterr().out
    main(["run", path, "--seed", "9", "--shots", "20", "--output", "machine"])
    second = capsys.readouterr().out
    assert first == second


def test_run_logical_program_balanced(tmp_path, capsys):
    path = _write(tmp_path, "plus.lq", LOGICAL_PLUS)
    assert main(["run", path, "--shots", "400", "--seed", "3",
                 "--output", "machine"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.strip().splitlines()]
    aggregate = records[-1]
    zeros = sum(count for key, count in aggregate["counts"].items()
                if key[0] == "0")
    assert 0.4 <= zeros / 400 <= 0.6


def test_run_runtime_error_reports_index(tmp_path, capsys):
    path = _write(tmp_path, "broken.qpu", "QPU s=1\nINIT m0 0\nINIT m0 0\n")
    assert main(["run", path]) == 1
    assert "instruction 1" in capsys.readouterr().err


def test_run_refuses_too_wide_logical_program_before_lowering(tmp_path,
                                                              capsys):
    # lowering takes about 0.7 KB per declared qubit before the machine
    # refuses the program, so 200000 qubits would peak near 130 MB
    path = _write(tmp_path, "wide.lq", "LQ n=200000\nMEASURE q0\n")
    tracemalloc.start()
    try:
        code = main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: a register of 400003 positions exceeds the 63 an int64 "
        "basis index can hold\n")
    assert peak < 1 << 20


def test_compile_rx_program(tmp_path, capsys):
    path = _write(tmp_path, "rx.lq", "LQ n=1\nRX 3.141592653589793 q0\n")
    assert main(["compile", path]) == 0
    out = capsys.readouterr().out
    qet_lines = [line for line in out.splitlines() if line.startswith("QET")]
    assert len(qet_lines) == 1
    assert math.isclose(float(qet_lines[0].split()[1]), -math.pi)
    # the emitted text reparses and validates
    reparsed, _ = parse_program_with_lines(out)
    assert reparsed.s == 2


def test_compile_cnot_census(tmp_path, capsys):
    path = _write(tmp_path, "cnot.lq",
                  "LQ n=2\nCNOT q0 q1\nMEASURE q0\nMEASURE q1\n")
    assert main(["compile", path]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("CQET") for line in out.splitlines()) == 1


def test_compile_empty_program(tmp_path, capsys):
    path = _write(tmp_path, "empty.lq", "LQ n=0\n")
    assert main(["compile", path]) == 0
    assert capsys.readouterr().out.strip() == "QPU s=0"


def test_compile_roundtrip_instruction_lists(tmp_path, capsys):
    path = _write(tmp_path, "mix.lq",
                  "LQ n=2\nRX 0.7 q0\nRZ -1.1 q1\nCNOT q1 q0\n"
                  "MEASURE q0\nMEASURE q1\n")
    main(["compile", path])
    text = capsys.readouterr().out
    assert parse_program_with_lines(text) == parse_program_with_lines(text)
    second = _write(tmp_path, "mix.qpu", text)
    assert main(["validate", second]) == 0
    capsys.readouterr()


def test_protocol_verify_ideal(capsys):
    assert main(["protocol-verify", "--samples", "20",
                 "--output", "machine"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.strip().splitlines()]
    steps = [r for r in records if r["type"] == "step"]
    assert len(steps) == 12
    assert all(abs(r["fidelity"] - 1) < 1e-9 for r in steps)
    summary = records[-1]
    assert summary["transfer_infidelity"] < 1e-9


def test_protocol_verify_physical_informational(capsys):
    assert main(["protocol-verify", "--samples", "5",
                 "--convention", "physical"]) == 0
    out = capsys.readouterr().out
    assert "branch phase" in out


def test_protocol_verify_rejects_zero_samples():
    with pytest.raises(SystemExit):
        main(["protocol-verify", "--samples", "0"])


@pytest.mark.parametrize("argv", [
    ["run", "tests/golden/bell.lq"],
    ["serve", "--transport", "stdio"],
    ["protocol-verify"],
], ids=["run", "serve", "protocol-verify"])
def test_negative_seed_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert info.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "-5"])
def test_port_out_of_range_is_usage_error(port, capsys):
    with pytest.raises(SystemExit) as info:
        main(["serve", "--transport", "socket", "--port", port])
    assert info.value.code == 2
    assert "--port: must be an integer in 0..65535" in capsys.readouterr().err


@pytest.mark.parametrize("argv, rule", [
    (["run", "tests/golden/bell.lq", "--shots", "abc"],
     "--shots: must be a positive integer"),
    (["run", "tests/golden/bell.lq", "--seed", "abc"],
     "--seed: must be a non-negative integer"),
    (["protocol-verify", "--samples", "x"],
     "--samples: must be a positive integer"),
    (["serve", "--capacity", "x"], "--capacity: must be a positive integer"),
    (["serve", "--port", "x"], "--port: must be an integer in 0..65535"),
    # every spelling that int() takes but program text refuses
    (["run", "tests/golden/bell.lq", "--seed", "\u0663"],
     "--seed: must be a non-negative integer"),
    (["run", "tests/golden/bell.lq", "--seed", " +5 "],
     "--seed: must be a non-negative integer"),
    (["run", "tests/golden/bell.lq", "--shots", "1_0"],
     "--shots: must be a positive integer"),
    (["protocol-verify", "--samples", "+5"],
     "--samples: must be a positive integer"),
    (["serve", "--capacity", "1_0"], "--capacity: must be a positive integer"),
    (["serve", "--port", "\u0663"], "--port: must be an integer in 0..65535"),
], ids=["shots", "seed", "samples", "capacity", "port", "seed-arabic-indic",
        "seed-signed-spaced", "shots-underscore", "samples-signed",
        "capacity-underscore", "port-arabic-indic"])
def test_non_integer_option_names_its_rule(argv, rule, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {rule}\n") and "invalid" not in err


def _calls(monkeypatch, function):
    """A list that gains an entry at each call of ``function``.

    Calls are counted wherever a qetsim module holds the function, as the
    benchmark's tracer wraps it.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name == "qetsim" or name.startswith("qetsim."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_run_validates_the_program_once(monkeypatch, capsys):
    # the shot plan's walk checks each instruction once per program, not
    # once per shot; only ``validate``, which reports every issue, calls
    # validate_program
    validated = _calls(monkeypatch, isa.validate_program)
    stepped = _calls(monkeypatch, isa.occupancy_step)
    monkeypatch.chdir(ROOT)
    assert main(["run", "tests/golden/bell.lq", "--shots", "3"]) == 0
    assert "counts over 3 shot(s):" in capsys.readouterr().out
    assert (len(validated), len(stepped)) == (0, 31)
    ops = [{"op": "QET", "qubits": [0], "theta": 1.0},
           {"op": "MEASURE", "qubits": [0]}]
    segment = transform(parse_client_ops(ops), "c")
    reply = QpfService().submit_request("c", ops)
    assert reply["type"] == "result"
    assert (len(validated), len(stepped)) == (
        0, 31 + len(segment.instructions))
    assert main(["validate", "tests/golden/bell.lq"]) == 0
    assert len(validated) == 1


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    # each call prints what a fresh process prints for the same command
    # line, whatever the shared parser parsed before it
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to it
    build_parser.cache_clear()
    run = ["run", "tests/golden/bell.lq", "--seed", "5", "--shots"]
    assert main(run + ["2000", "--output", "machine"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "bell_seed5.jsonl").read_text()
    with pytest.raises(SystemExit) as info:
        main(run + ["0"])
    assert info.value.code == 2
    # refused by the same rule, and so in the same words, as "--shots abc"
    out, err = capsys.readouterr()
    assert f"exit 2\n--- stdout\n{out}--- stderr\n{err}" == (
        GOLDEN / "cli_errors" / "run_shots_not_integer.txt").read_text()
    code = main(["validate", "tests/golden/cli_errors/occupancy.qpu"])
    out, err = capsys.readouterr()
    assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == (
        GOLDEN / "cli_errors" / "validate_qpu_occupancy.txt").read_text()
    assert main(run + ["200", "--output", "human"]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / "bell_seed5_human.txt").read_text()
    assert build_parser() is build_parser()


@pytest.mark.parametrize("locale_env", [
    {"PYTHONIOENCODING": "utf-8"},
    {"LC_ALL": "C"},
], ids=["utf-8", "c-locale"])
def test_serve_stdio_answers_non_utf8_line_like_tcp(locale_env):
    # the reply TCP gives to the same bytes, then the service serves on
    expected = QpfService().handle_bytes(b"\xff")
    assert expected.startswith('{"errors":[{"index":-1,"message":"malformed')
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONIOENCODING", "LC_ALL")}
    env.update(locale_env, PYTHONPATH=str(Path(qetsim.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qetsim.cli", "serve", "--capacity", "64"],
        input=b'\xff\n{"type":"capacity"}\n', capture_output=True, env=env,
        timeout=60)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.decode().splitlines() == [
        expected, '{"capacity":64,"type":"capacity"}']


def test_serve_logs_failures_only():
    # nothing is logged per request (a line each cost an eighth to a fifth
    # of a request); the golden's one backend failure, the too-wide
    # segment, is the one line
    env = dict(os.environ, PYTHONPATH=str(Path(qetsim.__file__).parents[1]))
    with open(GOLDEN / "service_requests.jsonl", "rb") as requests:
        done = subprocess.run(
            [sys.executable, "-m", "qetsim.cli", "serve", "--seed", "7",
             "--capacity", "64"],
            stdin=requests, capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout == (GOLDEN / "service_seed7.jsonl").read_bytes()
    [line] = done.stderr.decode().splitlines()
    assert " WARNING qetsim.service segment erin/3 failed: DimensionError(" in line


def test_serve_socket_until_interrupted():
    # the TCP transport through the real entry point: it prints where it
    # listens, serves, and stops quietly on SIGINT; every wait is bounded
    env = dict(os.environ, PYTHONPATH=str(Path(qetsim.__file__).parents[1]))
    server = subprocess.Popen(
        [sys.executable, "-m", "qetsim.cli", "serve", "--transport", "socket",
         "--port", "0", "--seed", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0)
    try:
        assert select.select([server.stdout], [], [], 60)[0], "no address"
        # unbuffered, so no later output is read here and missed below
        first = server.stdout.readline().decode()
        address = re.fullmatch(r"listening on (127\.0\.0\.1):(\d+)\n", first)
        assert address, first
        host, port = address.groups()
        with socket.create_connection((host, int(port)), timeout=60) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b'{"type":"capacity"}\n')
            assert reader.readline() == b'{"capacity":1024,"type":"capacity"}\n'
            conn.sendall(json.dumps(
                {"type": "submit", "client": "a",
                 "ops": [{"op": "QET", "qubits": [0], "theta": math.pi},
                         {"op": "MEASURE", "qubits": [0]}]}).encode() + b"\n")
            assert json.loads(reader.readline()) == {
                "type": "result", "results": [{"qubit": 0, "bit": 1}]}
            reader.close()
        server.send_signal(signal.SIGINT)
        out, err = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=60)
    assert server.returncode == 0, err.decode(errors="replace")
    assert out == b""
    [line] = err.decode().splitlines()
    assert f" INFO qetsim.service service listening on {host}:{port}" in line


def test_serve_stdio_one_shot(monkeypatch, capsys):
    fake_in = io.TextIOWrapper(io.BytesIO(
        b'{"type":"submit","client":"a","ops":[{"op":"MEASURE","qubits":[0]}]}\n'))
    monkeypatch.setattr("sys.stdin", fake_in)
    assert main(["serve", "--transport", "stdio", "--seed", "4"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(line) == {"type": "result",
                                "results": [{"qubit": 0, "bit": 0}]}


def _fresh_python(script: str) -> str:
    """Stdout of ``script`` in a new interpreter that imports this qetsim."""
    env = dict(os.environ, PYTHONPATH=str(Path(qetsim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_seeded_runs_never_import_numpy_random():
    # importing numpy.random alone maps about 6 MB (secrets, OpenSSL) into
    # the process; qetsim.pcg64 reproduces its stream so that no seeded
    # run, service or protocol oracle needs it
    golden = Path(__file__).parent / "golden"
    script = (
        "import contextlib, io, sys\n"
        "from qetsim.cli import main\n"
        "from qetsim.service import QpfService, serve_stdio\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['run', {str(golden / 'bell.lq')!r}, '--seed', '5']) == 0\n"
        "    for convention in ('ideal', 'physical'):\n"
        "        assert main(['protocol-verify', '--samples', '3', '--seed', '9',\n"
        "                     '--convention', convention]) == 0\n"
        f"with open({str(golden / 'service_requests.jsonl')!r}, 'rb') as requests:\n"
        "    serve_stdio(QpfService(seed=7, capacity=64), requests, io.StringIO())\n"
        "print('numpy.random' in sys.modules)\n")
    assert _fresh_python(script) == "False\n"


def test_bare_package_import_loads_no_module():
    # names are imported from their modules, so a process that needs
    # only the protocol oracle never loads the service or the compiler
    script = ("import sys\n"
              "import qetsim\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.startswith('qetsim.')))\n")
    assert _fresh_python(script) == "[]\n"
