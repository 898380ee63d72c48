"""The benchmark's tracer wraps qetsim functions by name.

A renamed or removed function that it wraps breaks every traced
benchmark run, so installing it on the tree is a tier-1 check.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_on_the_tree():
    script = ("import tracer\n"
              "tracer.install(tracer.Tracer())\n"
              "print('installed')\n")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    # read perfbench/, never write to it: no bytecode cache there
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "installed\n"
