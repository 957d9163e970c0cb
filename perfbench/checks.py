"""Output checks for one ``smoothlab compare`` repetition.

``comparison.csv`` must hold one row per (strategy, seed) run in config order,
then a median and a mean row per strategy; every value is finite and in
range, and the summary rows agree with the run rows they summarise.  Across
the repetitions of one workload the table must be byte-identical.
"""

from __future__ import annotations

import hashlib
import math
import statistics

HEADER = "strategy,seed,test_accuracy,test_ece_x100"
# Summary rows are computed from unrounded values, run rows are printed at 6 dp.
SUMMARY_TOLERANCE = 2e-6


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _number(cell: str, where: str, low: float, high: float, problems: list[str]):
    try:
        value = float(cell)
    except ValueError:
        problems.append(f"{where}: not a number: {cell!r}")
        return None
    if not math.isfinite(value) or not low <= value <= high:
        problems.append(f"{where}: {cell} is not a finite value in [{low:g}, {high:g}]")
        return None
    return value


def check_comparison(text: str, strategies, seeds) -> list[str]:
    """Problems found in a comparison table; an empty list means it passed."""
    lines = text.splitlines()
    expected = [HEADER]
    expected += [f"{s},{seed}" for s in strategies for seed in seeds]
    expected += [f"{s},{kind}" for s in strategies for kind in ("median", "mean")]
    if len(lines) != len(expected) or not text.endswith("\n"):
        return [f"expected {len(expected)} newline-terminated lines, got {len(lines)}"]
    if lines[0] != HEADER:
        return [f"bad header {lines[0]!r}"]
    problems: list[str] = []
    columns: dict[tuple[str, str], tuple[float | None, float | None]] = {}
    for lineno, (line, key) in enumerate(zip(lines[1:], expected[1:]), start=2):
        cells = line.split(",")
        if len(cells) != 4 or ",".join(cells[:2]) != key:
            problems.append(f"line {lineno}: expected a row for {key!r}, got {line!r}")
            continue
        where = f"line {lineno} ({key})"
        accuracy = _number(cells[2], where, 0.0, 1.0, problems)
        ece_x100 = _number(cells[3], where, 0.0, 100.0, problems)
        columns[tuple(cells[:2])] = (accuracy, ece_x100)
    if problems:
        return problems
    for s in strategies:
        for col, name in ((0, "test_accuracy"), (1, "test_ece_x100")):
            values = [columns[(s, str(seed))][col] for seed in seeds]
            for kind, fn in (("median", statistics.median), ("mean", statistics.mean)):
                reported = columns[(s, kind)][col]
                if abs(reported - fn(values)) > SUMMARY_TOLERANCE:
                    problems.append(
                        f"{s} {kind} {name} {reported} disagrees with its runs ({fn(values):.6f})"
                    )
    return problems


def median_ece_gap(text: str) -> float | None:
    """hard minus cpls median ECE x100, for information; None if either is absent."""
    medians = {}
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if len(cells) == 4 and cells[1] == "median":
            medians[cells[0]] = float(cells[3])
    if "hard" in medians and "cpls" in medians:
        return medians["hard"] - medians["cpls"]
    return None


def check_same(digests) -> list[bool]:
    """Per repetition: does its table digest equal the first repetition's?"""
    return [d == digests[0] for d in digests] if digests else []
