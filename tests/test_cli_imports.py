"""Each qetsim command loads only the modules it runs.

Every ``qetsim run`` is a fresh process, so a module it imports but
never runs is start-up time and memory paid on every run.  Each case
runs one command in a fresh interpreter, with no bytecode cache as the
benchmark runs, and reads ``sys.modules`` after it.  Two more cases
import one module alone the same way: the dense layer loads no random
stream, and the random stream loads no numpy.
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


# (a module imported alone, a module it must not load)
IMPORTS = [("qetsim.statevector", "qetsim.pcg64"), ("qetsim.pcg64", "numpy")]


def _fresh_python(script):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], input="",
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, used, absent", CASES,
                         ids=[case[0][0] for case in CASES])
def test_command_loads_only_what_it_runs(argv, used, absent):
    code, loaded = _fresh_python("import json, sys\n"
                                 "from qetsim import cli\n"
                                 f"code = cli.main({argv!r})\n"
                                 "print(json.dumps([code, sorted(sys.modules)]))\n")
    assert code == 0, loaded
    assert used in loaded
    assert [name for name in absent if name in loaded] == []


@pytest.mark.parametrize("module, absent", IMPORTS,
                         ids=[case[0] for case in IMPORTS])
def test_module_loads_no_other_layer(module, absent):
    loaded = _fresh_python(f"import json, sys\nimport {module}\n"
                           "print(json.dumps(sorted(sys.modules)))\n")
    assert module in loaded
    assert absent not in loaded
