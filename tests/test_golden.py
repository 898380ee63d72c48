"""Seeded transcripts and compiler output must stay byte-identical.

``golden/transcripts.txt`` lists every transcript under ``golden/``, one
a line: the file, how it is compared and the ``qetsim`` arguments that
make it.  The tests below parametrize from that list alone and call the
CLI in process; CI's "Seeded transcripts" step loops over the same list
through ``python -m qetsim.cli`` in a subprocess.  A golden is added, or
re-recorded, in a commit of its own that CHANGES.md names: a new golden
is one more line in the list and the CLI's output written to its file.
A file under ``golden/`` that no line names, as transcript or as input,
fails Tier-1, and so does a line whose transcript is gone.

The run transcripts under ``golden/`` were recorded with the dense
state-vector machine that preceded the sparse register; the service
transcript was recorded before the opcode table, the shared occupancy
step and the shared lowering emitters replaced their duplicated
predecessors.  The CLI error transcripts under ``golden/cli_errors/``
(stdout, stderr and exit code of each case) were recorded before the
CLI reported every error from one place, except ``validate_lq_too_wide``
and ``validate_qpu_too_wide``, which were recorded when ``validate``
began to refuse a program wider than the machine, and
``validate_lq_range``, recorded when a qubit outside ``[0, n)`` began to
be reported at its own line, and ``run_shots_not_integer``, recorded
when an option's integer type began to name its own rule for text that
is not an integer (an argparse error: exit 2 and the usage at 80
columns).  The service transcript
holds valid requests from several clients, every kind of rejection, a
backend failure (65 positions) and malformed or unknown messages; its
last request, a qubit measured, reused and measured again, was appended
when each ``MEASURE`` began to get its own bits; every outcome in its
reply has probability 0 or 1.  ``mixed_seed5.jsonl``, the only seeded
run through SU2 lines and a reversed CNOT, was recorded while SU2 was
still a gate kind of its own, before an SU2 line was read as its three
rotations.  ``reuse_seed5.jsonl``, the only seeded run of machine text,
was recorded while ``run_program`` still stepped each instruction:
``reuse.qpu`` measures a slot, initialises it again and moves it
through the cells after the readout.  The compile outputs ``bell.qpu``,
``ghz7.qpu`` and ``mixed.qpu`` were recorded again when both front ends
began to lower through one emitter, which puts each slot's ``INIT``
right before its first use; their other lines, in order, and their set
of ``INIT`` lines stayed as they were.  ``midmeasure.lq`` (a qubit
measured, reused through RX, RZ and CNOT, as control and as target, and
measured again) and its run and compile output were recorded when
logical text gained mid-circuit ``MEASURE``.  ``validate_lq_syntax``,
``run_lq_syntax`` and ``compile_qpu_file`` were recorded again when both
front ends began to check their ops with one record in one vocabulary:
a CNOT on one qubit now reads ``CNOT control and target must differ``,
as the service words it, and logical text knows ``QET``, ``PHASE`` and
``CQET``, so the machine lines of ``machine.qpu`` fail at their operands
and no longer as unknown operations.  ``protocol_verify_ideal.jsonl``
and ``protocol_verify_physical.jsonl`` were recorded again when
``verify_against_cqet`` began to draw its Gaussian inputs from
``RandomSource`` (Box-Muller over the package's PCG64 stream) in place
of ``numpy.random``: only their summary lines moved, because
``matrix_infidelity`` and the physical ``transfer_infidelity`` are worst
cases over the sampled inputs; the step fidelities, the branch phases
and the ideal transfer bound stayed.  A change that alters any of them
changes the fixed-seed contract and must say so.

Run as a script, ``python tests/test_golden.py GOT WANT`` compares two
JSON-lines record files as ``test_records_match`` does, and exits
non-zero on a mismatch.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from qetsim.cli import main

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
LIST = GOLDEN / "transcripts.txt"
# (file, kind, arguments) for each line of the list
TRANSCRIPTS = [line.split(None, 2) for line in LIST.read_text().splitlines()
               if not line.startswith("#")]


def _cases(kind):
    return [pytest.param(file, args, id=Path(file).stem)
            for file, how, args in TRANSCRIPTS if how == kind]


def _qetsim(args: str, monkeypatch, capsys):
    """Exit code, stdout and stderr of ``qetsim ARGS [< PATH]``, as CI runs it.

    Paths, and so the messages that cite them, are relative to the
    repository root; argparse wraps its usage to the terminal width.
    """
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    argv, _, stdin = args.partition(" < ")
    data = Path(stdin).read_bytes() if stdin else b""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    return (code, *capsys.readouterr())


def _assert_matches_golden(got: str, path: Path) -> None:
    """``got`` is byte for byte the text of the golden file at ``path``.

    On a mismatch the line counts and the first differing line are
    reported, never a diff of the whole texts: pytest's diff of two
    2000-shot transcripts runs for minutes.
    """
    want = path.read_text()
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    first = next((k for k, (g, w) in enumerate(zip(got_lines, want_lines))
                  if g != w), min(len(got_lines), len(want_lines)))
    got_at, want_at = (lines[first] if first < len(lines) else "(no line)"
                       for lines in (got_lines, want_lines))
    pytest.fail(f"{path.name}: {len(got_lines)} lines, golden has "
                f"{len(want_lines)}; first difference at line {first + 1}:\n"
                f"  got    {got_at!r}\n  golden {want_at!r}", pytrace=False)


def _records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def _assert_records_match(got, want, tol=1e-12):
    """Same structure, keys and strings; numbers within ``tol``.

    A number must be recorded as a number: a bool or a string in its
    place fails, though ``True - 1.0`` is 0.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want)
        for key in want:
            _assert_records_match(got[key], want[key], tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_records_match(g, w, tol)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) in (int, float) and abs(got - want) <= tol, (got, want)
    else:
        assert got == want


@pytest.mark.parametrize("got", [True, "1.0", 1.0 + 1e-9],
                         ids=["bool", "string", "beyond-tolerance"])
def test_record_comparison_refuses_what_is_not_the_number(got):
    with pytest.raises(AssertionError):
        _assert_records_match([{"x": got}], [{"x": 1.0}])


@pytest.mark.parametrize("file, args", _cases("stdout"))
def test_stdout_is_byte_identical(file, args, monkeypatch, capsys):
    code, out, _ = _qetsim(args, monkeypatch, capsys)
    assert code == 0
    _assert_matches_golden(out, GOLDEN / file)


@pytest.mark.parametrize("file, args", _cases("records"))
def test_records_match(file, args, monkeypatch, capsys):
    # the ideal transfer infidelity is a last-bit value that depends on
    # the BLAS summation order, so numbers are compared within 1e-12
    # rather than byte for byte
    code, out, _ = _qetsim(args, monkeypatch, capsys)
    assert code == 0
    _assert_records_match(_records(out),
                          _records((GOLDEN / file).read_text()))


@pytest.mark.parametrize("file, args", _cases("exit"))
def test_cli_error_transcript_is_byte_identical(file, args, monkeypatch,
                                                capsys):
    code, out, err = _qetsim(args, monkeypatch, capsys)
    _assert_matches_golden(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}",
                           GOLDEN / file)


def test_list_names_every_golden_once():
    # each transcript once and present, each with a kind some test reads;
    # every other file under golden/ is an input that some line names
    assert {how for _, how, _ in TRANSCRIPTS} <= {"stdout", "records", "exit"}
    inputs = {word.removeprefix("tests/golden/") for _, _, args in TRANSCRIPTS
              for word in args.split() if word.startswith("tests/golden/")}
    files = {path.relative_to(GOLDEN).as_posix() for path in GOLDEN.rglob("*")
             if path.is_file() and path != LIST}
    assert sorted(file for file, _, _ in TRANSCRIPTS) == sorted(files - inputs)


@pytest.mark.parametrize("program", sorted([*GOLDEN.glob("*.lq"),
                                            *GOLDEN.glob("*.qpu")]),
                         ids=lambda path: path.name)
def test_golden_program_validates(program, capsys):
    assert main(["validate", str(program)]) == 0
    assert capsys.readouterr().out == "ok\n"


if __name__ == "__main__":
    _assert_records_match(*(_records(Path(path).read_text())
                            for path in sys.argv[1:3]))
