"""Each qetsim command loads only the modules it runs.

Every ``qetsim run`` is a fresh process, so a module it imports but
never runs is start-up time and memory paid on every run.  Each case
runs one command in a fresh interpreter, with no bytecode cache as the
benchmark runs, and reads ``sys.modules`` after it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BELL = str(ROOT / "tests" / "golden" / "bell.lq")

# the service with its transports and logging, the protocol oracle and
# the cavity dynamics: none of them runs a program
NOT_RUN = ("qetsim.service", "qetsim.protocol", "qetsim.dynamics",
           "socket", "selectors", "logging")

# (argv, a module the command runs, modules it must not load)
CASES = [
    (["run", BELL, "--output", "machine"], "qetsim.machine", NOT_RUN),
    (["validate", BELL], "qetsim.isa", NOT_RUN),
    (["compile", BELL], "qetsim.compiler", NOT_RUN),
    (["protocol-verify", "--samples", "1"], "qetsim.protocol",
     ("qetsim.service",)),
    (["serve", "--transport", "stdio"], "qetsim.service",
     ("qetsim.protocol",)),
]


@pytest.mark.parametrize("argv, used, absent", CASES,
                         ids=[case[0][0] for case in CASES])
def test_command_loads_only_what_it_runs(argv, used, absent):
    script = ("import json, sys\n"
              "from qetsim import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], input="",
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stdout
    assert used in loaded
    assert [name for name in absent if name in loaded] == []
