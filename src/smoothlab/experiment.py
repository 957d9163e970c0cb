"""Config-driven experiment orchestration: dataset generation, per-strategy
training runs with artifact emission, multi-seed comparisons, and report
consolidation. The config format is flat ``section.key=value`` text."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .calibration import ece, reliability_bins, write_reliability_csv
from .datasets import (
    BlobSpec,
    LabeledDataset,
    SplitSpec,
    generate_confusable_blobs,
    load_csv,
    save_csv,
    standardize,
    stratified_split,
    write_csv,
)
from .errors import ConfigError, ParseError
from .smoothing import STRATEGY_KINDS, TargetStrategy, write_confusion_csv
from .trainer import (
    EpochMetrics,
    MlpConfig,
    TrainConfig,
    evaluate,
    extract_features,
    fit,
)

_DEFAULTS: dict[str, str] = {
    "data.source": "synthetic",
    "data.csv": "",
    "data.classes": "8",
    "data.per_class": "100",
    "data.dimension": "8",
    "data.spread": "1.0",
    "data.overlap": "0:1,2:3",
    "split.train": "0.70",
    "split.val": "0.15",
    "split.test": "0.15",
    "model.hidden": "32",
    "train.epochs": "50",
    "train.batch_size": "32",
    "train.learning_rate": "0.1",
    "train.momentum": "0.9",
    "train.ece_bins": "10",
    "strategies": "hard,vanilla,ols,cpls",
    "vanilla.alpha": "0.1",
    "cpls.beta": "0.5",
    "cpls.warmup": "5",
    "ols.warmup": "5",
    "seeds": "1,2,3,4,5,6,7,8,9,10",
    "out": "runs",
}


@dataclass(frozen=True)
class ExperimentConfig:
    data: BlobSpec | Path  # the synthetic generator's spec, or a feature CSV
    split: SplitSpec
    hidden: tuple[int, ...]
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    ece_bins: int
    strategies: tuple[TargetStrategy, ...]
    seeds: tuple[int, ...]
    out_dir: Path


@dataclass
class RunRecord:
    strategy: str
    seed: int
    test_accuracy: float
    test_ece: float
    metrics: list[EpochMetrics]
    artifacts: dict[str, Path] = field(default_factory=dict)


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat key=value lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{origin}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: expected a number, got {raw!r}") from None


def _parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    if not raw:
        return ()
    return tuple(_parse_int(part.strip(), key) for part in raw.split(","))


def _parse_pairs(raw: str, key: str) -> tuple[tuple[int, int], ...]:
    if not raw:
        return ()
    pairs = []
    for part in raw.split(","):
        a, sep, b = part.strip().partition(":")
        if not sep:
            raise ConfigError(f"config key {key}: expected a:b pairs, got {part!r}")
        pairs.append((_parse_int(a, key), _parse_int(b, key)))
    return tuple(pairs)


def _build_strategy(name: str, values: dict[str, str]) -> TargetStrategy:
    if name == "hard":
        return TargetStrategy.hard()
    if name == "vanilla":
        return TargetStrategy.vanilla(alpha=_parse_float(values["vanilla.alpha"], "vanilla.alpha"))
    if name == "ols":
        return TargetStrategy.ols(warmup_epochs=_parse_int(values["ols.warmup"], "ols.warmup"))
    if name == "cpls":
        return TargetStrategy.cpls(
            beta=_parse_float(values["cpls.beta"], "cpls.beta"),
            warmup_epochs=_parse_int(values["cpls.warmup"], "cpls.warmup"),
        )
    raise ConfigError(f"unknown strategy {name!r}, expected one of {STRATEGY_KINDS}")


def config_from_values(values: dict[str, str]) -> ExperimentConfig:
    unknown = set(values) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {**_DEFAULTS, **values}

    source = merged["data.source"]
    if source == "synthetic":
        data = BlobSpec(
            num_classes=_parse_int(merged["data.classes"], "data.classes"),
            samples_per_class=_parse_int(merged["data.per_class"], "data.per_class"),
            dimension=_parse_int(merged["data.dimension"], "data.dimension"),
            spread=_parse_float(merged["data.spread"], "data.spread"),
            overlap_pairs=_parse_pairs(merged["data.overlap"], "data.overlap"),
        )
    elif source == "csv":
        if not merged["data.csv"]:
            raise ConfigError("data.source=csv requires data.csv to point at a feature CSV")
        data = Path(merged["data.csv"])
    else:
        raise ConfigError(f"data.source must be 'synthetic' or 'csv', got {source!r}")
    split = SplitSpec(
        _parse_float(merged["split.train"], "split.train"),
        _parse_float(merged["split.val"], "split.val"),
        _parse_float(merged["split.test"], "split.test"),
    )
    hidden = tuple(
        _parse_int(part.strip(), "model.hidden")
        for part in merged["model.hidden"].split(",")
        if part.strip()
    )
    strategy_names = [s.strip() for s in merged["strategies"].split(",") if s.strip()]
    if not strategy_names:
        raise ConfigError("at least one strategy is required")
    for pos, name in enumerate(strategy_names):
        if name in strategy_names[:pos]:
            raise ConfigError(f"strategies lists {name!r} more than once")
    strategies = tuple(_build_strategy(name, merged) for name in strategy_names)
    seeds = _parse_int_list(merged["seeds"], "seeds")
    if not seeds:
        raise ConfigError("at least one seed is required")
    if min(seeds) < 0:
        raise ConfigError(f"config key seeds: expected non-negative integers, got {min(seeds)}")
    return ExperimentConfig(
        data=data,
        split=split,
        hidden=hidden,
        epochs=_parse_int(merged["train.epochs"], "train.epochs"),
        batch_size=_parse_int(merged["train.batch_size"], "train.batch_size"),
        learning_rate=_parse_float(merged["train.learning_rate"], "train.learning_rate"),
        momentum=_parse_float(merged["train.momentum"], "train.momentum"),
        ece_bins=_parse_int(merged["train.ece_bins"], "train.ece_bins"),
        strategies=strategies,
        seeds=seeds,
        out_dir=Path(merged["out"]),
    )


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    return config_from_values(parse_kv_text(path.read_text(encoding="utf-8"), str(path)))


def write_manifest(blob: BlobSpec, seed: int, path: Path) -> None:
    # blob.centers is derived from the other keys and written, at repr
    # precision, for readers outside the package; nothing reads it back.
    centers = ";".join(":".join(repr(float(v)) for v in row) for row in blob.class_centers)
    overlap = ",".join(f"{a}:{b}" for a, b in blob.overlap_pairs)
    path.write_text(
        "\n".join(
            [
                f"blob.classes={blob.num_classes}",
                f"blob.per_class={blob.samples_per_class}",
                f"blob.dimension={blob.dimension}",
                f"blob.spread={blob.spread!r}",
                f"blob.overlap={overlap}",
                f"blob.centers={centers}",
                f"seed={seed}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )


def _load_source(cfg: ExperimentConfig, seed: int) -> LabeledDataset:
    if isinstance(cfg.data, BlobSpec):
        return generate_confusable_blobs(cfg.data, seed)
    return load_csv(cfg.data)


def prepare_splits(
    cfg: ExperimentConfig, seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Materialize standardized train/val/test splits for one seed."""
    ds = _load_source(cfg, seed)
    train, val, test = stratified_split(ds, cfg.split, seed)
    return standardize(train, val, test)


def run_generate(cfg: ExperimentConfig, seed: int | None = None) -> dict[str, Path]:
    """Write raw train/val/test CSVs plus a manifest of the blob spec and seed."""
    if not isinstance(cfg.data, BlobSpec):
        raise ConfigError("generate requires data.source=synthetic")
    seed = cfg.seeds[0] if seed is None else seed
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    ds = generate_confusable_blobs(cfg.data, seed)
    train, val, test = stratified_split(ds, cfg.split, seed)
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


def _write_summary(record: RunRecord, path: Path) -> None:
    lines = [
        f"strategy={record.strategy}",
        f"seed={record.seed}",
        f"test_accuracy={record.test_accuracy:.6f}",
        f"test_ece={record.test_ece:.6f}",
        f"epochs={len(record.metrics)}",
    ]
    for name in sorted(record.artifacts):
        lines.append(f"artifact.{name}={record.artifacts[name].name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_single(
    splits: tuple[LabeledDataset, LabeledDataset, LabeledDataset],
    cfg: ExperimentConfig,
    strategy: TargetStrategy,
    seed: int,
    run_dir: Path,
) -> RunRecord:
    """Train one (strategy, seed) pair on prepared splits and emit its artifacts."""
    train, val, test = splits
    mlp = MlpConfig((train.n_features, *cfg.hidden, train.num_classes))
    train_cfg = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        strategy=strategy,
        seed=seed,
        momentum=cfg.momentum,
        ece_bins=cfg.ece_bins,
    )
    # Created only now, so a run that MlpConfig or TrainConfig rejects leaves no directory.
    run_dir.mkdir(parents=True, exist_ok=True)

    artifacts: dict[str, Path] = {}

    def snapshot_confusion(epoch, params, record, tracker):
        if strategy.kind == "cpls":
            path = run_dir / f"confusion_epoch_{epoch}.csv"
            write_confusion_csv(tracker.normalized, path)
            artifacts[f"confusion_epoch_{epoch}"] = path

    params, metrics, _ = fit(train, val, mlp, train_cfg, on_epoch=snapshot_confusion)

    # The test split is touched exactly once, after training finishes.
    test_accuracy, test_probs, test_confusion = evaluate(params, test)
    test_ece = ece(test_probs, test.labels, cfg.ece_bins)

    artifacts["metrics"] = run_dir / "metrics.csv"
    metric_rows = (
        (m.epoch, m.phase, m.train_loss, m.val_loss, m.val_accuracy, m.val_ece) for m in metrics
    )
    header = ("epoch", "phase", "train_loss", "val_loss", "val_accuracy", "val_ece")
    write_csv(artifacts["metrics"], ("%d", "%s") + ("%.6f",) * 4, metric_rows, header)
    artifacts["reliability"] = run_dir / "reliability.csv"
    write_reliability_csv(
        reliability_bins(test_probs, test.labels, cfg.ece_bins), artifacts["reliability"]
    )
    artifacts["test_confusion"] = run_dir / "test_confusion.csv"
    write_csv(
        artifacts["test_confusion"],
        ("%d",) * test_confusion.shape[1],
        map(tuple, test_confusion.tolist()),
    )
    if mlp.num_hidden > 0:
        feats = extract_features(params, test)
        artifacts["features"] = run_dir / "features.csv"
        save_csv(LabeledDataset(feats, test.labels, test.num_classes), artifacts["features"])

    record = RunRecord(
        strategy=strategy.kind,
        seed=seed,
        test_accuracy=test_accuracy,
        test_ece=test_ece,
        metrics=metrics,
        artifacts=artifacts,
    )
    summary = run_dir / "summary.txt"
    _write_summary(record, summary)
    record.artifacts["summary"] = summary
    return record


def run_training(
    cfg: ExperimentConfig, strategy: TargetStrategy, seed: int, run_dir: Path | None = None
) -> RunRecord:
    """Standalone single run: prepare splits for the seed, then train and emit.

    A run directory that already holds a file is refused before anything is
    written, so no run's artifacts sit beside those of an earlier one.
    """
    if run_dir is None:
        run_dir = cfg.out_dir / f"{strategy.kind}_seed{seed}"
    if run_dir.is_dir() and any(run_dir.iterdir()):
        raise ConfigError(f"run directory {run_dir} is not empty; train into a new one")
    splits = prepare_splits(cfg, seed)
    return run_single(splits, cfg, strategy, seed, run_dir)


def run_compare(cfg: ExperimentConfig) -> tuple[Path, list[RunRecord]]:
    """Run every (strategy x seed) combination and emit the comparison table.

    For a given seed, every strategy trains on bit-identical splits and from
    bit-identical initial parameters (``fit`` draws them from the model shape
    and the seed alone); only the loss targets differ. An output directory that
    already holds a comparison table or a run summary is refused before
    anything is written, so no report mixes runs of two invocations.
    """
    if len(cfg.strategies) < 2:
        raise ConfigError("compare needs at least 2 strategies")
    out = cfg.out_dir
    if (out / "comparison.csv").exists() or any(out.glob("*/summary.txt")):
        raise ConfigError(f"output directory {out} already holds runs; compare into a new one")
    out.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    by_strategy: list[list[RunRecord]] = [[] for _ in cfg.strategies]
    for seed in cfg.seeds:
        splits = prepare_splits(cfg, seed)
        for pos, strategy in enumerate(cfg.strategies):
            run_dir = out / f"{strategy.kind}_seed{seed}"
            try:
                record = run_single(splits, cfg, strategy, seed, run_dir)
            except Exception as exc:
                raise RuntimeError(
                    f"run failed for strategy={strategy.kind} seed={seed}: {exc}"
                ) from exc
            records.append(record)
            by_strategy[pos].append(record)

    # The seed column holds a seed or the name of a summary statistic.
    rows = [
        (r.strategy, r.seed, r.test_accuracy, r.test_ece * 100)
        for runs in by_strategy
        for r in runs
    ]
    for runs in by_strategy:
        accs = [r.test_accuracy for r in runs]
        eces = [r.test_ece * 100 for r in runs]
        for label, stat in (("median", statistics.median), ("mean", statistics.mean)):
            rows.append((runs[0].strategy, label, stat(accs), stat(eces)))
    table_path = out / "comparison.csv"
    header = ("strategy", "seed", "test_accuracy", "test_ece_x100")
    write_csv(table_path, ("%s", "%s", "%.6f", "%.6f"), rows, header)
    return table_path, records


def run_report(run_dir) -> str:
    """Consolidate summary.txt files under a directory into one table.

    Pure presentation: nothing is recomputed, so repeated invocations emit
    identical bytes. Returns the rendered table; also writes report.csv.
    """
    run_dir = Path(run_dir)
    summaries = sorted(run_dir.rglob("summary.txt"))
    if not summaries:
        raise ConfigError(f"no runs found under {run_dir}")
    rows = []
    for summary in summaries:
        values = parse_kv_text(summary.read_text(encoding="utf-8"), str(summary))
        try:
            rows.append(
                (
                    values["strategy"],
                    int(values["seed"]),
                    values["test_accuracy"],
                    values["test_ece"],
                    summary.parent / values.get("artifact.metrics", "metrics.csv"),
                )
            )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{summary}: corrupt run summary ({exc})") from None
    rows.sort(key=lambda r: (r[0], r[1]))

    header = f"{'strategy':<10} {'seed':>6} {'test_accuracy':>14} {'test_ece':>10}  metrics"
    lines = [header, "-" * len(header)]
    for strategy, seed, acc, ece_value, metrics_path in rows:
        lines.append(f"{strategy:<10} {seed:>6} {acc:>14} {ece_value:>10}  {metrics_path}")
    text = "\n".join(lines) + "\n"

    write_csv(
        run_dir / "report.csv",
        ("%s", "%d", "%s", "%s"),
        (row[:4] for row in rows),
        ("strategy", "seed", "test_accuracy", "test_ece"),
    )
    return text
