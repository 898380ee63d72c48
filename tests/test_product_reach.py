"""Each function under ``src/qetsim`` runs on a product path, or is listed.

A product path is what a user of the ``qetsim`` commands and of the
service runs.  The probe runs, in a fresh interpreter whose profiler is
installed before ``qetsim`` is imported, every line of
``golden/transcripts.txt`` through ``cli.main`` in process, and one TCP
``ServiceServer`` round trip of ``golden/service_requests.jsonl``.  Then
it names the functions and methods defined under ``src/qetsim`` (found
by AST, nested ones included) that never ran.

That set must equal the keys of ``UNREACHED``.  Each row names the
ROADMAP item that will connect or remove its function, and for a
function the benchmark's tracer reads by name, the name that
``perfbench/tracer.py`` uses.  So a new function that only tests run
fails here, and so does a listed one that gains a product caller while
its row stays: the change that connects or removes a function deletes
its row.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN, ROOT, TRANSCRIPTS

SRC = ROOT / "src" / "qetsim"
TRACER = ROOT / "perfbench" / "tracer.py"

# qualified name -> (the ROADMAP item that owns it, the name by which
# perfbench/tracer.py wraps or reads it, or None)
UNREACHED = {
    "compiler.derive_cnot_corrections": ("item 17", None),
    "dynamics.CavityAtomParams.__post_init__": ("items 7(b) and 16", None),
    "dynamics._rk4_step_matrix": ("items 7(b) and 16", None),
    "dynamics.hamiltonian": ("items 7(b) and 16", None),
    "dynamics.integrate_two_level": ("items 7(b) and 16", None),
    "dynamics.rabi_coefficients": ("items 7(b) and 16", None),
    "machine.MachineState.register": ("item 4", ".register"),
    "machine.execute_instruction": ("item 4", "execute_instruction"),
    "service.ExecutionBatch.command_count": ("item 5", ".command_count"),
    "statevector.measure_subsystem": ("item 4", "measure_subsystem"),
}

# Runs in a fresh interpreter: reads the transcript list and the request
# file's path as JSON on stdin, prints the (file, first line, name) of
# every function under src/qetsim that ran.
PROBE = r"""
import io, json, os, socket, sys, threading
from contextlib import redirect_stderr, redirect_stdout

called = {}

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called[id(code)] = code

sys.setprofile(profile)
threading.setprofile(profile)

from qetsim.cli import main
from qetsim.service import QpfService, ServiceServer

transcripts, requests = json.load(sys.stdin)
for _, _, args in transcripts:
    argv, _, stdin = args.partition(" < ")
    data = open(stdin, "rb").read() if stdin else b""
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            main(argv.split())
        except SystemExit:  # argparse refused the command line
            pass

server = ServiceServer(QpfService(seed=7, capacity=64))
server.start()
with socket.create_connection(server.address, timeout=30) as client:
    client.sendall(open(requests, "rb").read())
    client.shutdown(socket.SHUT_WR)
    replies = b"".join(iter(lambda: client.recv(1 << 16), b""))
server.stop()
sys.setprofile(None)
threading.setprofile(None)

src = os.path.join(os.path.abspath(sys.argv[1]), "")
ran = sorted({(os.path.relpath(code.co_filename, src), code.co_firstlineno,
               code.co_name) for code in called.values()
              if os.path.abspath(code.co_filename).startswith(src)})
print(json.dumps({"ran": ran, "replies": replies.count(b"\n")}))
"""


def defined_functions(src: Path) -> dict:
    """(file, first line, name) -> qualified name of each def under ``src``.

    A decorated function's code starts at its first decorator.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[path, first, child.name] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted(src.glob("*.py")):
        visit(ast.parse(file.read_text()), file.name, f"{file.stem}.")
    return found


def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT, env=env,
        input=json.dumps([TRANSCRIPTS,
                          str(GOLDEN / "service_requests.jsonl")]),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_only_listed_functions_run_on_no_product_path():
    result = probe()
    requests = (GOLDEN / "service_requests.jsonl").read_bytes().count(b"\n")
    assert result["replies"] == requests
    functions = defined_functions(SRC)
    ran = {tuple(key) for key in result["ran"]}
    unreached = {name for key, name in functions.items() if key not in ran}
    assert sorted(unreached - set(UNREACHED)) == [], \
        "on no product path: give each a product caller or move it to tests/"
    assert sorted(set(UNREACHED) - unreached) == [], \
        "now on a product path: delete their rows from UNREACHED"


def test_each_tracer_pinned_row_is_named_by_the_tracer():
    # a row the tracer pins goes when the tracer stops reading the name
    text = TRACER.read_text()
    assert [name for name, (_, pin) in UNREACHED.items()
            if pin is not None and pin not in text] == []
