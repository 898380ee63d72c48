"""Seeded ``qetsim run`` transcripts must stay byte-identical.

The files under ``golden/`` were recorded with the dense state-vector
machine that preceded the sparse register.  A change that alters them
changes the fixed-seed contract and must say so.
"""

from pathlib import Path

import pytest

from qetsim.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("program, shots, transcript", [
    ("bell.lq", 2000, "bell_seed5.jsonl"),
    ("ghz7.lq", 20, "ghz7_seed5.jsonl"),
])
def test_seeded_run_transcript_is_byte_identical(program, shots, transcript,
                                                 capsys):
    assert main(["run", str(GOLDEN / program), "--seed", "5",
                 "--shots", str(shots), "--output", "machine"]) == 0
    assert capsys.readouterr().out == (GOLDEN / transcript).read_text()
