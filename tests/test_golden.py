"""Every file a tiny compare writes, pinned by its SHA-256.

Refactors of the trainer and the orchestration promise byte-identical
artifacts; this test holds them to it file by file. A change that is meant to
alter the outputs regenerates ``golden/tiny_compare.sha256`` with the command
in ``golden/tiny_compare.cfg`` and says why in its change notes.
"""

import hashlib
from pathlib import Path

from smoothlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_tiny_compare_matches_golden_digests(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--config", str(GOLDEN / "tiny_compare.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    want = {}
    for line in (GOLDEN / "tiny_compare.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []
    assert len(want) == 50
