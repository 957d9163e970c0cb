"""Every file a tiny compare and a tiny generate write, pinned by its SHA-256.

Refactors of the trainer, the CSV writer and the orchestration promise
byte-identical artifacts; these tests hold them to it file by file. A change
that is meant to alter the outputs regenerates ``golden/tiny_compare.sha256``
or ``golden/tiny_generate.sha256`` with the commands in
``golden/tiny_compare.cfg`` and says why in its change notes.

The config has two seeds, so the digests are checked with the seeds run in
this process and on two worker processes, from the ``python -m smoothlab``
command line, from a program read on stdin, and on a rerun into the output
directory of a compare that was interrupted.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothlab.experiment as experiment
from smoothlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(experiment.__file__).resolve().parents[1]


def assert_matches_golden(out, digests="tiny_compare.sha256", files=44):
    want = {}
    for line in (GOLDEN / digests).read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []
    assert len(want) == files


def test_tiny_compare_matches_golden_digests(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--config", str(GOLDEN / "tiny_compare.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert_matches_golden(out)


def test_tiny_generate_matches_golden_digests(tmp_path, capsys):
    # the three splits through save_csv, and the manifest
    out = tmp_path / "out"
    assert main(["generate", "--config", str(GOLDEN / "tiny_compare.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert_matches_golden(out, "tiny_generate.sha256", 4)


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
def test_digests_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(GOLDEN / "tiny_compare.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert_matches_golden(out)


def test_rerun_after_an_interrupted_compare_matches_golden_digests(tmp_path, capsys, monkeypatch):
    # interrupted in-process after two of its eight runs were written
    real_emit, emitted = experiment._emit_run, []

    def emit(*args):
        if len(emitted) == 2:
            raise KeyboardInterrupt
        emitted.append(real_emit(*args))
        return emitted[-1]

    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(experiment, "_emit_run", emit)
    out = tmp_path / "out"
    argv = ["compare", "--config", str(GOLDEN / "tiny_compare.cfg"), "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert main(argv) == 0
    capsys.readouterr()
    assert_matches_golden(out)


def test_module_command_line_matches_golden_digests(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "smoothlab", "compare", "--config",
         str(GOLDEN / "tiny_compare.cfg"), "--out", str(out)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert_matches_golden(out)


def test_program_read_on_stdin_matches_golden_digests(tmp_path):
    # A spawned worker cannot re-run a program read from stdin, so its two
    # seeds run in the calling process, whatever the CPU count.
    out = tmp_path / "out"
    program = (
        "import sys\n"
        "import smoothlab.experiment as experiment\n"
        "from smoothlab.cli import main\n"
        "if __name__ == '__main__':\n"
        "    experiment._usable_cpus = lambda: 2\n"
        f"    sys.exit(main(['compare', '--config', {str(GOLDEN / 'tiny_compare.cfg')!r}, "
        f"'--out', {str(out)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-"], input=program, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert_matches_golden(out)


def test_importing_the_module_entry_point_runs_nothing(capsys):
    import smoothlab.__main__  # noqa: F401

    assert capsys.readouterr() == ("", "")
