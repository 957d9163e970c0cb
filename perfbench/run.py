"""Benchmark of the ``smoothlab compare`` protocol.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a smoothlab checkout; the package is imported from its
``src/``.  Each repetition is one fresh, single-threaded worker interpreter
(``worker.py``) that imports smoothlab, parses the workload config and runs
``smoothlab.cli.main(["compare", ...])`` into a temporary directory under the
checkout.  Repetitions run one after another (a closed loop of one client)
until ``--seconds`` have passed.

Workloads (``--seed`` shifts the config seeds; seed 0 gives seeds 1, 2, ...):

* default-compare: the README default config, 4 strategies x 10 seeds on
  8 classes, d=8, hidden 32, batch 32, 50 epochs.  36,000 SGD steps of
  32x8 -> 32 -> 8, so the trainer loop is bound by per-call dispatch.
* wide-compare: 32 classes x 400, d=32, hidden 128,128, batch 128, 2 seeds x
  4 epochs.  The same trainer code in the FLOP-bound regime, with
  128-column features.csv writes.

Both generate their data, so CSV ingest (``load_csv``) is not exercised;
the ``datasets.load_source`` metrics time the generator.

Repetitions are short (about 4 to 6 s), so one run holds several of them and
their median ignores the brief slow spells of a shared machine.  Speed drift
over minutes still shows between runs.

``--trace 0`` prints the end-to-end metrics: set-up time, compare wall time,
training throughput and peak memory, as medians over the repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see tracing.py), including the tracing
overhead.  Every repetition's comparison.csv is checked (see checks.py) and
must be byte-identical across the repetitions; a repetition that exits
non-zero or fails a check counts as failed, and ``failed_share`` is printed
with the environment, the table's sha256 and the metrics.  The metric names
and units come from BENCHMARK.json.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_comparison, check_same, digest, median_ece_gap
from measure import describe
from tracing import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TMP_PARENT = ROOT / ".perfbench_tmp"

MIN_REPS = 3  # per kind (untraced, traced) of repetition
SETUP_PROBES = 5  # set-up-only launches on top of the one in every repetition
RUN_LIMIT_S = 170.0  # a whole run must end well inside 180 s
# Workers are single-threaded.  A fixed hash seed keeps peak RSS repeatable:
# with randomised string hashing it flips between two levels about 4 MB apart
# from one process to the next.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# name: (strategies, number of seeds, epochs, further config lines)
WORKLOADS = {
    "default-compare": (("hard", "vanilla", "ols", "cpls"), 10, 50, ()),
    "wide-compare": (
        ("hard", "vanilla", "ols", "cpls"),
        2,
        4,
        (
            "data.classes = 32",
            "data.per_class = 400",
            "data.dimension = 32",
            "model.hidden = 128,128",
            "train.batch_size = 128",
            "ols.warmup = 2",
            "cpls.warmup = 2",
        ),
    ),
}


def workload_config(name: str, seed: int) -> tuple[str, list[int]]:
    """Config text and config seeds for one workload."""
    strategies, n_seeds, epochs, lines = WORKLOADS[name]
    seeds = [seed + i for i in range(1, n_seeds + 1)]
    lines = [
        *lines,
        f"train.epochs = {epochs}",
        f"strategies = {','.join(strategies)}",
        f"seeds = {','.join(map(str, seeds))}",
    ]
    return "\n".join(lines) + "\n", seeds


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


class Bench:
    def __init__(self, tmp: Path, config_path: Path, started: float):
        self.tmp = tmp
        self.config_path = config_path
        self.started = started
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **WORKER_ENV}

    def launch(self, out: Path, *extra) -> tuple[int, dict | None, float, str]:
        """Run the worker once: (exit code, its JSON, launch time, stderr tail)."""
        cmd = [sys.executable, str(WORKER), "--config", str(self.config_path), "--out", str(out)]
        timeout = max(1.0, RUN_LIMIT_S - (_clock() - self.started))
        launched = _clock()
        try:
            proc = subprocess.run(
                cmd + list(extra), cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return -1, None, launched, f"timed out after {timeout:.0f} s"
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        return proc.returncode, result, launched, proc.stderr[-2000:]


def artifact_totals(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    started = _clock()
    if not (ROOT / "src" / "smoothlab" / "__init__.py").is_file():
        print(f"error: no smoothlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        return _run(args, started, tmp, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, started: float, tmp: Path, units: dict[str, str]) -> int:
    strategies, _, epochs, _ = WORKLOADS[args.workload]
    text, seeds = workload_config(args.workload, args.seed)
    config_path = tmp / "workload.cfg"
    config_path.write_text(text, encoding="utf-8")
    bench = Bench(tmp, config_path, started)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    # The first launch compiles bytecode, so it is not a set-up sample.
    probe_out = tmp / "probe"
    rc, probe, _, err = bench.launch(probe_out, "--probe")
    if rc != 0 or probe is None:
        print(f"error: set-up probe failed (exit {rc}): {err}", file=sys.stderr)
        return 1
    expected_pkg = ROOT / "src" / "smoothlab" / "__init__.py"
    if Path(probe["smoothlab"]).resolve() != expected_pkg.resolve():
        print(f"error: imported smoothlab from {probe['smoothlab']}", file=sys.stderr)
        return 1
    blas = probe["blas"]
    env_record = {
        "python": sys.version.split()[0],
        "numpy": probe["numpy"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        **WORKER_ENV,
    }
    print("env " + json.dumps(env_record, sort_keys=True))
    n_train = probe["n_train"]
    work = len(strategies) * len(seeds) * epochs * n_train
    print(f"work: {len(strategies)} strategies x {len(seeds)} seeds x {epochs} epochs "
          f"x {n_train} train samples = {work} samples per compare")

    setup = []
    for _ in range(SETUP_PROBES):
        rc, probe, launched, err = bench.launch(probe_out, "--probe")
        if rc == 0 and probe is not None:
            setup.append(probe["setup_done"] - launched)

    deadline = started + args.seconds
    kinds = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    longest = 0.0
    while (
        min(sum(r["traced"] == k for r in reps) for k in kinds) < MIN_REPS
        or _clock() + longest < deadline
    ):
        traced = kinds[len(reps) % len(kinds)]
        rep_start = _clock()
        reps.append(_repetition(bench, tmp / f"out{len(reps)}", traced, strategies, seeds))
        longest = max(longest, _clock() - rep_start)
        if reps[-1].get("timed_out"):
            break

    digests = [r["sha256"] for r in reps if r["ok"]]
    for rep, same in zip([r for r in reps if r["ok"]], check_same(digests)):
        if not same:
            rep["ok"] = False
            rep["problems"].append("comparison.csv differs from the first repetition's")
    for i, rep in enumerate(reps, start=1):
        status = "ok" if rep["ok"] else "FAILED: " + "; ".join(rep["problems"])
        timing = f" wall_s={rep['wall_s']:.4f}" if "wall_s" in rep else ""
        print(f"rep {i} {'traced' if rep['traced'] else 'untraced'}{timing} "
              f"sha256={rep.get('sha256', '-')} {status}")

    failed = sum(not r["ok"] for r in reps)
    timed = [r for r in reps if "wall_s" in r]
    print(f"comparison.csv sha256={digests[0] if digests else '-'} "
          f"({len(set(digests))} distinct over {len(digests)} passing repetitions)")
    tables = [r["table"] for r in reps if "table" in r]
    if tables:
        gap = median_ece_gap(tables[0])
        if gap is not None:
            print(f"info: median test ECE x100, hard minus cpls = {gap:.4f} (not a gate)")
    print(f"failed_share={failed}/{len(reps)}={failed / len(reps):.4f}")
    untraced = [r for r in timed if not r["traced"]]
    traced_reps = [r for r in timed if "layers" in r]
    if not untraced or (args.trace and not traced_reps):
        print("error: no repetition produced a timing", file=sys.stderr)
        return 1

    setup += [r["setup_s"] for r in untraced]
    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        per_rep = [r["layers"] for r in traced_reps]
        values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        traced_walls = [r["wall_s"] for r in traced_reps]
        print(f"wall_s untraced {describe(walls)}; traced {describe(traced_walls)}")
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        values["experiment.artifact_files"] = traced_reps[0]["artifact_files"]
        values["experiment.artifact_bytes"] = traced_reps[0]["artifact_bytes"]
        missing = sorted({h for r in traced_reps for h in r["missing_hooks"]})
        if missing:
            print("warning: hooks not found, their layers read 0: " + ", ".join(missing))
        runs = values["experiment.run_single.calls"]
        calls = values["trainer.loss_and_gradients.calls"]
        print(f"samples: {len(per_rep)} traced repetitions; run_single n={runs:g} per compare "
              f"(p75 has {runs * 0.25:g} beyond it), loss_and_gradients n={calls:g} "
              f"(p99 has {calls * 0.01:g} beyond it)")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "samples_per_s": statistics.median(work / w for w in walls),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in untraced) / 1024.0,
        }
        print(f"setup_s {describe(setup)}")
        print(f"wall_s {describe(walls)}")

    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _repetition(bench: Bench, out: Path, traced: bool, strategies, seeds) -> dict:
    """Launch one compare into ``out``, check its outputs and collect its figures."""
    spans = bench.tmp / "spans.jsonl"
    extra = ("--spans", str(spans)) if traced else ()
    rc, result, launched, err = bench.launch(out, *extra)
    rep = {"traced": traced, "ok": False, "problems": []}
    if rc == -1:
        rep["timed_out"] = True
    if rc != 0 or result is None or result.get("rc") != 0:
        rep["problems"].append(f"exit {rc}: {err.strip()[-300:]}")
        return rep
    rep.update(
        wall_s=result["wall_s"],
        setup_s=result["setup_done"] - launched,
        peak_rss_kb=result["peak_rss_kb"],
    )
    table_path = out / "comparison.csv"
    if not table_path.is_file():
        rep["problems"].append("no comparison.csv")
        return rep
    data = table_path.read_bytes()
    rep["sha256"] = digest(data)
    rep["table"] = data.decode("utf-8", errors="replace")
    rep["problems"] = check_comparison(rep["table"], strategies, seeds)
    rep["ok"] = not rep["problems"]
    if traced:
        rep["layers"] = layer_metrics(read_spans(spans))
        rep["missing_hooks"] = result.get("missing_hooks", [])
        rep["artifact_files"], rep["artifact_bytes"] = artifact_totals(out)
        spans.unlink()
    shutil.rmtree(out, ignore_errors=True)
    return rep


if __name__ == "__main__":
    sys.exit(main())
