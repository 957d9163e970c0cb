"""Config-driven experiment orchestration: dataset generation, per-strategy
training runs with artifact emission, multi-seed comparisons, and report
consolidation. The config format is flat ``section.key=value`` text."""

from __future__ import annotations

import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .calibration import ece, reliability_bins, write_reliability_csv
from .datasets import (
    BlobSpec,
    LabeledDataset,
    SplitSpec,
    _is_int,
    _plain_number,
    _read_text,
    generate_confusable_blobs,
    load_csv,
    save_csv,
    standardize,
    stratified_split,
    write_csv,
)
from .errors import ConfigError, DomainError, ParseError
from .smoothing import STRATEGY_KINDS, TargetStrategy, write_confusion_csv
from .trainer import (
    EpochMetrics,
    ModelParams,
    TrainConfig,
    _fit_stack,
    _RunError,
    _stack_cap,
    evaluate,
    extract_features,
    fit,
)


@dataclass(frozen=True)
class ExperimentConfig:
    data: BlobSpec | LabeledDataset  # the generator's spec, or the parsed feature CSV
    split: SplitSpec
    train: TrainConfig
    strategies: tuple[TargetStrategy, ...]
    seeds: tuple[int, ...]
    out_dir: Path

    def __post_init__(self):
        # A repeated strategy or seed would overwrite a run dir and count twice.
        kinds = tuple(strategy.kind for strategy in self.strategies)
        for name, items in (("strategies", kinds), ("seeds", self.seeds)):
            if not items:
                raise ConfigError(f"{name}: expected at least one item")
            for pos, value in enumerate(items):
                if value in items[:pos]:
                    raise ConfigError(f"{name} lists {value!r} more than once")
        for seed in self.seeds:
            if not (_is_int(seed) and seed >= 0):
                raise ConfigError(f"seeds: expected non-negative integers, got {seed!r}")


@dataclass
class RunRecord:
    """One run's results: its strategy kind and seed, its test accuracy and
    ECE, and the paths of the artifacts it wrote by name. The per-epoch
    metrics live in its ``metrics.csv`` artifact (and in ``fit``'s return
    value), not here."""

    strategy: str
    seed: int
    test_accuracy: float
    test_ece: float
    artifacts: dict[str, Path] = field(default_factory=dict)


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat key=value lines; '#' starts a comment, blanks are skipped, and
    a key may appear once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ParseError(f"{origin}: line {lineno}: expected key=value, got {raw!r}")
        if key in first_line:
            raise ParseError(
                f"{origin}: line {lineno}: key {key!r} already set on line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _parse_text(raw: str, key: str) -> str:
    return raw


def _parse_int(raw: str, key: str) -> int:
    try:
        return _plain_number(raw, int)
    except ValueError:
        raise ConfigError(f"config key {key}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return _plain_number(raw, float)
    except ValueError:
        raise ConfigError(f"config key {key}: expected a number, got {raw!r}") from None


def _parse_pair(raw: str, key: str) -> tuple[int, int]:
    a, sep, b = raw.partition(":")
    if not sep:
        raise ConfigError(f"config key {key}: expected a:b pairs, got {raw!r}")
    return _parse_int(a, key), _parse_int(b, key)


def _parse_kind(raw: str, key: str) -> str:
    if raw not in STRATEGY_KINDS:
        raise ConfigError(
            f"config key {key}: unknown strategy {raw!r}, expected one of {STRATEGY_KINDS}"
        )
    return raw


def _list_of(item: Callable) -> Callable:
    """Parser of a comma list of ``item`` values: an empty value is no items,
    and an empty item is an error."""

    def parse(raw: str, key: str) -> tuple:
        parts = [part.strip() for part in raw.split(",")] if raw else []
        if "" in parts:
            raise ConfigError(f"config key {key}: empty item in {raw!r}")
        return tuple(item(part, key) for part in parts)

    return parse


# Every config key: its default, spelled as in a config file; the parser that
# turns a value into its setting or a ConfigError naming the key; and the owner
# and field the setting goes to. An owner is "blob" (BlobSpec), "split"
# (SplitSpec), "train" (TrainConfig) or a strategy kind (TargetStrategy); the
# keys without one are read by config_from_values itself. A read config has
# each key parsed, whether or not its run uses it.
_KEYS: dict[str, tuple[str, Callable, str | None, str | None]] = {
    "data.csv": ("", _parse_text, None, None),  # empty: the synthetic generator below
    "data.classes": ("8", _parse_int, "blob", "num_classes"),
    "data.per_class": ("100", _parse_int, "blob", "samples_per_class"),
    "data.dimension": ("8", _parse_int, "blob", "dimension"),
    "data.overlap": ("0:1,2:3", _list_of(_parse_pair), "blob", "overlap_pairs"),
    "split.train": ("0.70", _parse_float, "split", "train_fraction"),
    "split.val": ("0.15", _parse_float, "split", "val_fraction"),
    "split.test": ("0.15", _parse_float, "split", "test_fraction"),
    "model.hidden": ("32", _list_of(_parse_int), "train", "hidden"),
    "train.epochs": ("50", _parse_int, "train", "epochs"),
    "train.batch_size": ("32", _parse_int, "train", "batch_size"),
    "train.learning_rate": ("0.1", _parse_float, "train", "learning_rate"),
    "train.momentum": ("0.9", _parse_float, "train", "momentum"),
    "train.ece_bins": ("10", _parse_int, "train", "ece_bins"),
    "strategies": ("hard,vanilla,ols,cpls", _list_of(_parse_kind), None, None),
    "vanilla.alpha": ("0.1", _parse_float, "vanilla", "alpha"),
    "cpls.beta": ("0.5", _parse_float, "cpls", "beta"),
    "cpls.warmup": ("5", _parse_int, "cpls", "warmup_epochs"),
    "ols.warmup": ("5", _parse_int, "ols", "warmup_epochs"),
    "seeds": ("1,2,3,4,5,6,7,8,9,10", _list_of(_parse_int), None, None),
    "out": ("runs", _parse_text, None, None),
}


def _build(cls, settings: dict, owner: str, *args):
    """``cls(*args, **fields)`` with each field that ``_KEYS`` gives to
    ``owner`` set from its key; a value out of its domain is reported under
    those keys."""
    keys = {name: key for key, (*_, dest, name) in _KEYS.items() if dest == owner}
    try:
        return cls(*args, **{name: settings[key] for name, key in keys.items()})
    except (ConfigError, DomainError) as exc:
        # A per-field check names its field first; a cross-field rule names none.
        culprit = keys.get(str(exc).split(" ", 1)[0]) or "/".join(keys.values())
        raise ConfigError(f"config key {culprit}: {exc}") from None


def config_from_values(values: dict[str, str]) -> ExperimentConfig:
    """Parse every key, set or defaulted, then build the config. All four
    strategy kinds are built, so ``train --strategy`` may pick one the
    ``strategies`` list leaves out."""
    unknown = set(values) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    settings = {key: parse(values.get(key, text), key) for key, (text, parse, *_) in _KEYS.items()}
    csv_path = settings["data.csv"]
    stale = [key for key, (*_, owner, _) in _KEYS.items() if owner == "blob" and key in values]
    if csv_path and stale:
        raise ConfigError(f"data.csv is set; the generator's keys do not apply: {', '.join(stale)}")
    split = _build(SplitSpec, settings, "split")
    train = _build(TrainConfig, settings, "train")
    kinds = {kind: _build(TargetStrategy, settings, kind, kind) for kind in STRATEGY_KINDS}
    data = load_csv(csv_path) if csv_path else _build(BlobSpec, settings, "blob")
    return ExperimentConfig(
        data=data,
        split=split,
        train=train,
        strategies=tuple(kinds[kind] for kind in settings["strategies"]),
        seeds=settings["seeds"],
        out_dir=Path(settings["out"]),
    )


def parse_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a config file; ``overrides`` set keys over the file's values. A
    relative ``data.csv`` in the file is read from the file's directory."""
    path = Path(path)
    values = parse_kv_text(_read_text(path), str(path))
    if values.get("data.csv"):
        values["data.csv"] = str(path.parent / values["data.csv"])
    return config_from_values({**values, **(overrides or {})})


def write_manifest(blob: BlobSpec, seed: int, path: Path) -> None:
    # blob.centers is derived from the other keys and written, at repr
    # precision, for readers outside the package; nothing reads it back.
    centers = ";".join(":".join(repr(float(v)) for v in row) for row in blob.class_centers)
    overlap = ",".join(f"{a}:{b}" for a, b in blob.overlap_pairs)
    rows = [
        ("blob.classes", blob.num_classes),
        ("blob.per_class", blob.samples_per_class),
        ("blob.dimension", blob.dimension),
        ("blob.overlap", overlap),
        ("blob.centers", centers),
        ("seed", seed),
    ]
    write_csv(path, ("%s=%s",), rows)


def prepare_splits(
    cfg: ExperimentConfig, seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Materialize standardized train/val/test splits for one seed; only a
    synthetic source depends on the seed, a CSV source was parsed with the config."""
    ds = cfg.data
    if isinstance(ds, BlobSpec):
        ds = generate_confusable_blobs(ds, seed)
    train, val, test = stratified_split(ds, cfg.split, seed)
    return standardize(train, val, test)


def _refuse_compare_tree(out_dir: Path, command: str) -> None:
    """Refuse an output directory that holds a compare's table: a compare's
    report lists only the runs it made, and nothing writes into its tree."""
    if (out_dir / "comparison.csv").exists():
        raise ConfigError(
            f"output directory {out_dir} holds a compare's runs; {command} into a new one"
        )


def run_generate(cfg: ExperimentConfig) -> dict[str, Path]:
    """Write raw train/val/test CSVs plus a manifest of the blob spec and first
    seed. An output directory that holds a compare's table is refused before
    anything is written; one that holds an earlier generate's files is not."""
    if not isinstance(cfg.data, BlobSpec):
        raise ConfigError("generate writes synthetic data, but data.csv is set")
    _refuse_compare_tree(cfg.out_dir, "generate")
    seed = cfg.seeds[0]
    out = cfg.out_dir
    ds = generate_confusable_blobs(cfg.data, seed)
    train, val, test = stratified_split(ds, cfg.split, seed)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "train": out / "train.csv",
        "val": out / "val.csv",
        "test": out / "test.csv",
        "manifest": out / "manifest.txt",
    }
    save_csv(train, paths["train"])
    save_csv(val, paths["val"])
    save_csv(test, paths["test"])
    write_manifest(cfg.data, seed, paths["manifest"])
    return paths


def _write_summary(record: RunRecord, epochs: int, path: Path) -> None:
    rows = [
        ("strategy", record.strategy),
        ("seed", record.seed),
        ("test_accuracy", "%.6f" % record.test_accuracy),
        ("test_ece", "%.6f" % record.test_ece),
        ("epochs", epochs),
    ]
    rows += ((f"artifact.{name}", record.artifacts[name].name) for name in sorted(record.artifacts))
    write_csv(path, ("%s=%s",), rows)


def run_single(
    splits: tuple[LabeledDataset, LabeledDataset, LabeledDataset],
    cfg: ExperimentConfig,
    strategy: TargetStrategy,
    seed: int,
    run_dir: Path,
) -> RunRecord:
    """Train one (strategy, seed) pair on prepared splits and emit its
    artifacts, from the triple ``fit`` returns."""
    train, val, test = splits
    return _emit_run(
        test, cfg, strategy, seed, run_dir, *fit(train, val, cfg.train, strategy, seed)
    )


def _emit_run(
    test: LabeledDataset,
    cfg: ExperimentConfig,
    strategy: TargetStrategy,
    seed: int,
    run_dir: Path,
    params: ModelParams,
    metrics: list[EpochMetrics],
    val_confusion: list,
) -> RunRecord:
    """Write a trained run's artifacts into ``run_dir``: its cpls tracker
    tables (when ``val_confusion`` holds any), its metrics, the test-split
    scores and features, and the summary. Returns the run's record."""
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    if val_confusion:
        artifacts["val_confusion"] = run_dir / "val_confusion.csv"
        write_confusion_csv(val_confusion, artifacts["val_confusion"])

    # The test split is touched exactly once, after training finishes.
    test_accuracy, test_probs, test_confusion = evaluate(params, test)
    test_ece = ece(test_probs, test.labels, cfg.train.ece_bins)

    artifacts["metrics"] = run_dir / "metrics.csv"
    metric_rows = (
        (m.epoch, m.phase, m.train_loss, m.val_loss, m.val_accuracy, m.val_ece) for m in metrics
    )
    header = ("epoch", "phase", "train_loss", "val_loss", "val_accuracy", "val_ece")
    write_csv(artifacts["metrics"], ("%d", "%s") + ("%.6f",) * 4, metric_rows, header)
    artifacts["reliability"] = run_dir / "reliability.csv"
    write_reliability_csv(
        reliability_bins(test_probs, test.labels, cfg.train.ece_bins), artifacts["reliability"]
    )
    artifacts["test_confusion"] = run_dir / "test_confusion.csv"
    write_csv(
        artifacts["test_confusion"],
        ("%d",) * test_confusion.shape[1],
        map(tuple, test_confusion.tolist()),
    )
    if cfg.train.hidden:
        feats = extract_features(params, test)
        artifacts["features"] = run_dir / "features.csv"
        save_csv(LabeledDataset(feats, test.labels, test.num_classes), artifacts["features"])

    record = RunRecord(
        strategy=strategy.kind,
        seed=seed,
        test_accuracy=test_accuracy,
        test_ece=test_ece,
        artifacts=artifacts,
    )
    summary = run_dir / "summary.txt"
    _write_summary(record, len(metrics), summary)
    record.artifacts["summary"] = summary
    return record


def run_training(cfg: ExperimentConfig, strategy: TargetStrategy, seed: int) -> RunRecord:
    """Standalone single run: the one-run stack of ``strategy`` and ``seed``
    (see ``_run_stack``), so it writes the bytes a compare writes for that run
    and names a failure as a compare does.

    An output directory that holds a compare's table is refused before
    anything is written, so no compare's report lists a run it did not make;
    ``_run_stack`` refuses a run directory that already holds a file.
    """
    _refuse_compare_tree(cfg.out_dir, "train")
    return _run_stack(replace(cfg, strategies=(strategy,), seeds=(seed,)), (seed,))[0]


# The thread-count variables of the BLAS builds numpy ships with or links to.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(items, count: int) -> list:
    """``items`` cut into ``count`` contiguous chunks whose sizes differ by at
    most one, the longer chunks first."""
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _run_stack(cfg: ExperimentConfig, seeds: tuple[int, ...]) -> list[RunRecord]:
    """Every strategy's run of ``seeds``, strategy by strategy in config order
    and seed by seed within each, each into ``<out>/<kind>_seed<seed>``: the
    one path of every run, a compare's or a ``train``'s.

    A run directory that already holds a file is refused before any split is
    prepared. The runs are then trained on their prepared splits in lockstep
    (``_fit_stack``), or each alone (``run_single``) for one seed, and
    emitted in that order. Preparing, training and emission run with numpy's
    overflow and invalid warnings off: each such value ends in
    ``standardize``'s, ``ece``'s or the trainer's named error, which this
    reports. A failure names the strategy and the seed of the run that owns
    it, or every strategy and seed of the stack when no single run does; a
    failure to prepare the splits is raised as it is."""
    runs = [(strategy, seed) for strategy in cfg.strategies for seed in seeds]
    run_dirs = [cfg.out_dir / f"{strategy.kind}_seed{seed}" for strategy, seed in runs]
    for run_dir in run_dirs:
        if run_dir.is_dir() and any(run_dir.iterdir()):
            raise ConfigError(f"run directory {run_dir} is not empty; train into a new one")

    def failed(strategy: TargetStrategy, seed: int, error: Exception) -> RuntimeError:
        return RuntimeError(f"run failed for strategy={strategy.kind} seed={seed}: {error}")

    with np.errstate(over="ignore", invalid="ignore"):
        splits = [prepare_splits(cfg, seed) for seed in seeds]
        fitted = None
        if len(seeds) > 1:
            try:
                fitted = _fit_stack([s[:2] for s in splits], cfg.train, cfg.strategies, seeds)
            except _RunError as exc:
                strategy, seed = runs[exc.index]
                raise failed(strategy, seed, exc.error) from exc.error
            except Exception as exc:
                kinds = ",".join(strategy.kind for strategy in cfg.strategies)
                raise RuntimeError(
                    f"run failed for strategies={kinds} seeds={','.join(map(str, seeds))}: {exc}"
                ) from exc
        records = []
        for r, ((strategy, seed), run_dir) in enumerate(zip(runs, run_dirs)):
            split = splits[r % len(seeds)]  # run r's seed, as in _fit_stack
            try:
                if fitted is None:
                    records.append(run_single(split, cfg, strategy, seed, run_dir))
                else:
                    records.append(_emit_run(split[2], cfg, strategy, seed, run_dir, *fitted[r]))
            except Exception as exc:
                raise failed(strategy, seed, exc) from exc
    return records


def _plan(cfg: ExperimentConfig, workers: int) -> list[list[tuple[int, ...]]]:
    """The seeds in the stacks a compare runs, in config order, as one list
    of stacks per worker: each worker's chunk (see ``_chunks``) cut into as
    few stacks as hold at most ``_stack_cap`` runs, that is that many over the
    number of strategies in seeds (at least one), whose sizes differ by at
    most one."""
    data = cfg.data
    width = data.dimension if isinstance(data, BlobSpec) else data.n_features
    runs = _stack_cap((width, *cfg.train.hidden, data.num_classes), cfg.train.batch_size)
    cap = max(1, runs // len(cfg.strategies))  # in seeds, each one run per strategy
    return [_chunks(chunk, -(-len(chunk) // cap)) for chunk in _chunks(cfg.seeds, workers)]


# The program of a worker child. Its stdin holds the caller's sys.path, so it
# imports the same smoothlab, and then what ``_work`` reads. Once the outcome
# is out, every file the child wrote is closed, so it exits without the
# interpreter's teardown, which would only delay the caller's reaping.
_BOOTSTRAP = (
    "import os, pickle, sys\n"
    "sys.path[:] = pickle.load(sys.stdin.buffer)\n"
    "from smoothlab.experiment import _work\n"
    "_work()\n"
    "sys.stderr.flush()\n"
    "os._exit(0)\n"
)


def _work() -> None:
    """A worker child's task: read ``(cfg, stacks)`` from stdin, run the
    stacks in order, and write one pickled outcome to stdout, the records or
    the first exception. Closing fd 1 right after it ends the parent's read."""
    import pickle

    cfg, stacks = pickle.load(sys.stdin.buffer)
    try:
        outcome = [record for stack in stacks for record in _run_stack(cfg, stack)]
    except Exception as exc:
        outcome = exc
    with open(1, "wb") as out:
        pickle.dump(outcome, out)


def _run_seeds(cfg: ExperimentConfig) -> list[RunRecord]:
    """Every stack's records (see ``_run_stack``), in the order of ``_plan``.

    The seeds are independent, so they run on one worker per usable CPU, up
    to one per seed. A single worker's stacks run in this process. Otherwise
    each worker is a fresh child interpreter that runs its chunk's stacks
    (``_work``), fed over its stdin and reporting over its stdout; none
    inherits this process's BLAS thread pool, and each has ``cpus // workers``
    BLAS threads in its environment, so the workers' threads together use
    each CPU once. Every child is reaped before this returns or raises, and
    killed first if this process raises or is interrupted. The first failure
    in config order is raised; a child that exits without an outcome is a
    RuntimeError naming its seeds and its exit status, as is one whose
    outcome does not unpickle.
    """
    cpus = _usable_cpus()
    workers = min(len(cfg.seeds), cpus)
    plan = _plan(cfg, workers)
    if workers == 1:
        return [record for stack in plan[0] for record in _run_stack(cfg, stack)]

    import pickle
    import subprocess

    # this interpreter's -W, -X, -O, ... flags, as multiprocessing passes them on
    command = [sys.executable, *subprocess._args_from_interpreter_flags(), "-c", _BOOTSTRAP]
    env = {**os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, str(max(1, cpus // workers)))}
    children = []
    try:
        # Every child starts before any is fed, so their start-ups overlap. The
        # pipes are unbuffered, so closing one to a killed child flushes nothing.
        for _ in plan:
            children.append(
                subprocess.Popen(
                    command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, env=env
                )
            )
        for child, stacks in zip(children, plan):
            try:
                child.stdin.write(pickle.dumps(sys.path) + pickle.dumps((cfg, stacks)))
            except BrokenPipeError:
                pass  # the child is gone; reading its outcome says how it ended
            child.stdin.close()
        records = []
        for child, stacks in zip(children, plan):
            data = child.stdout.read()
            try:
                outcome = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError) as exc:  # no outcome, or one cut short
                seeds = ",".join(str(seed) for stack in stacks for seed in stack)
                raise RuntimeError(
                    f"the worker running seeds={seeds} exited with status {child.wait()} "
                    "without an outcome"
                ) from exc
            if isinstance(outcome, BaseException):
                raise outcome
            records += outcome
        return records
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.stdin.close()
            child.stdout.close()
            child.wait()


def run_compare(cfg: ExperimentConfig) -> tuple[Path, list[RunRecord]]:
    """Run every (strategy x seed) combination and emit the comparison table.

    For a given seed, every strategy trains on bit-identical splits and from
    bit-identical initial parameters (``fit`` draws them from the layer sizes
    and the seed alone); only the loss targets differ. An output directory
    that already exists is refused before anything is written. The tree is
    built in a hidden directory beside it, or beside its nearest existing
    ancestor when its parent is missing, and renamed to it once the table and
    ``report.csv`` are written; its missing parents are made just before the
    rename. So the output directory appears whole or not at all, no report
    mixes runs of two invocations, and nothing writes into it afterwards; a
    compare that fails or is interrupted removes the hidden directory and
    leaves no parent behind. The records are returned in the order of the
    table's rows, and their paths name files under the output directory.

    The seeds run in parallel worker processes where more than one CPU is
    usable (see ``_run_seeds``); every output byte is the same either way.
    """
    if len(cfg.strategies) < 2:
        raise ConfigError("compare needs at least 2 strategies")
    out = cfg.out_dir.resolve()
    if out.exists():
        raise ConfigError(f"output directory {cfg.out_dir} already exists; compare into a new one")
    base = next(parent for parent in out.parents if parent.exists())
    tmp = base / f".{out.name}.{os.urandom(4).hex()}"
    tmp.mkdir()
    try:
        stacked = _run_seeds(replace(cfg, out_dir=tmp))
        by_strategy = [[r for r in stacked if r.strategy == s.kind] for s in cfg.strategies]
        records = [record for runs in by_strategy for record in runs]
        # The seed column holds a seed or the name of a summary statistic.
        rows = [(r.strategy, r.seed, r.test_accuracy, r.test_ece * 100) for r in records]
        for runs in by_strategy:
            accs = [r.test_accuracy for r in runs]
            eces = [r.test_ece * 100 for r in runs]
            for label, stat in (("median", statistics.median), ("mean", statistics.mean)):
                rows.append((runs[0].strategy, label, stat(accs), stat(eces)))
        header = ("strategy", "seed", "test_accuracy", "test_ece_x100")
        write_csv(tmp / "comparison.csv", ("%s", "%s", "%.6f", "%.6f"), rows, header)
        run_report(tmp)
        out.parent.mkdir(parents=True, exist_ok=True)
        os.rename(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    for record in records:
        record.artifacts = {
            name: cfg.out_dir / path.relative_to(tmp) for name, path in record.artifacts.items()
        }
    return cfg.out_dir / "comparison.csv", records


def _report(run_dir: Path) -> tuple[str, list[tuple[str, int, str, str]]]:
    """The table of the runs whose summary.txt sits directly under
    ``run_dir`` (the layout ``train`` and ``compare`` write), rendered, and
    the rows of its report.csv; writes nothing."""
    summaries = sorted(run_dir.glob("*/summary.txt"))
    if not summaries:
        raise ConfigError(f"no runs found under {run_dir}")
    rows = []
    for summary in summaries:
        values = parse_kv_text(_read_text(summary), str(summary))
        try:
            rows.append(
                (
                    values["strategy"],
                    _plain_number(values["seed"], int),
                    values["test_accuracy"],
                    values["test_ece"],
                    summary.parent / values.get("artifact.metrics", "metrics.csv"),
                )
            )
        except (KeyError, ValueError) as exc:
            # a KeyError names the missing field; a ValueError is the seed's
            field = "" if isinstance(exc, KeyError) else "seed: "
            raise ParseError(f"{summary}: corrupt run summary ({field}{exc})") from None
    rows.sort(key=lambda r: (r[0], r[1]))

    header = f"{'strategy':<10} {'seed':>6} {'test_accuracy':>14} {'test_ece':>10}  metrics"
    lines = [header, "-" * len(header)]
    for strategy, seed, acc, ece_value, metrics_path in rows:
        lines.append(f"{strategy:<10} {seed:>6} {acc:>14} {ece_value:>10}  {metrics_path}")
    return "\n".join(lines) + "\n", [row[:4] for row in rows]


def run_report(run_dir) -> str:
    """Consolidate the summary.txt of each run directory directly under a
    directory (the layout ``train`` and ``compare`` write) into one table.

    Pure presentation: nothing is recomputed, so repeated invocations emit
    identical bytes. Returns the rendered table; also writes report.csv.
    """
    run_dir = Path(run_dir)
    text, rows = _report(run_dir)
    header = ("strategy", "seed", "test_accuracy", "test_ece")
    write_csv(run_dir / "report.csv", ("%s", "%d", "%s", "%s"), rows, header)
    return text
