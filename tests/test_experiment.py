import dataclasses
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoothlab import (
    BlobSpec,
    ConfigError,
    DomainError,
    LabeledDataset,
    NumericError,
    ParseError,
    SplitSpec,
    TargetStrategy,
    TrainConfig,
    generate_confusable_blobs,
    load_csv,
    parse_config,
    run_compare,
    run_generate,
    run_report,
    run_training,
    save_csv,
)
from smoothlab.cli import _build_parser, main
from smoothlab.datasets import write_csv
from smoothlab.experiment import (
    _KEYS,
    _build,
    _chunks,
    _plan,
    config_from_values,
    parse_kv_text,
)
from smoothlab.smoothing import _KIND_FIELDS, STRATEGY_KINDS

FAST_CONFIG = """
# small experiment used by the test-suite
data.classes = 4
data.per_class = 20
data.dimension = 3
data.overlap = 0:1
train.epochs = 4
train.batch_size = 16
train.learning_rate = 0.1
strategies = hard,cpls
cpls.warmup = 1
seeds = 1
out = {out}
"""


def assert_artifact_csv(path):
    """The one artifact CSV format: LF line ends only, a trailing LF, and every
    row as many fields as the first (the header, where there is one)."""
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n"), path
    rows = data[:-1].split(b"\n")
    assert len(rows) > 1 and len({row.count(b",") for row in rows}) == 1, path


def write_config(tmp_path, *lines, **extra):
    """FAST_CONFIG writing under tmp_path. Each "key = value" line, and each
    keyword (``train_epochs=2`` sets train.epochs), takes the place of the line
    that sets the same key, since a config file may set a key only once. A
    data.csv line also drops FAST_CONFIG's generator (data.*) lines, which a
    CSV source rejects."""
    lines += tuple(f"{key.replace('_', '.')} = {value}" for key, value in extra.items())
    keys = {line.partition("=")[0].strip() for line in lines}
    base = FAST_CONFIG.format(out=tmp_path / "runs").splitlines()
    if "data.csv" in keys:
        base = [line for line in base if not line.startswith("data.")]
    kept = [line for line in base if line.partition("=")[0].strip() not in keys]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join([*kept, *lines]) + "\n")
    return path


def _text_of(values):
    """A strategy of valid ``values`` as (config text, parsed value) pairs."""
    return values.map(lambda v: (repr(v), v))


def _list_text(items, unique=False, min_size=0):
    """A strategy of valid comma lists of ``items``, as (text, tuple) pairs."""
    return st.lists(items, unique=unique, min_size=min_size, max_size=4).map(
        lambda vs: (",".join(map(str, vs)), tuple(vs))
    )


# Valid values of every config key but data.csv and the split fractions, which
# must sum to 1 and are drawn together in the property below.
VALID_VALUES = {
    "data.classes": _text_of(st.integers(4, 64)),  # the overlap pairs name classes 0..3
    "data.per_class": _text_of(st.integers(1, 1000)),
    "data.dimension": _text_of(st.integers(1, 64)),
    "data.overlap": st.permutations(range(4)).flatmap(
        lambda p: st.sampled_from([(), ((p[0], p[1]),), ((p[0], p[1]), (p[2], p[3]))])
    ).map(lambda pairs: (",".join(f"{a}:{b}" for a, b in pairs), pairs)),
    "model.hidden": _list_text(st.integers(1, 128)),
    "train.epochs": _text_of(st.integers(1, 1000)),
    "train.batch_size": _text_of(st.integers(1, 4096)),
    "train.learning_rate": _text_of(st.floats(0.0, 10.0)),
    "train.momentum": _text_of(st.floats(0.0, 1.0, exclude_max=True)),
    "train.ece_bins": _text_of(st.integers(1, 100)),
    "strategies": st.lists(st.sampled_from(STRATEGY_KINDS), min_size=1, unique=True).map(
        lambda kinds: (",".join(kinds), tuple(kinds))
    ),
    "vanilla.alpha": _text_of(st.floats(0.0, 1.0, exclude_max=True)),
    "cpls.beta": _text_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    "cpls.warmup": _text_of(st.integers(0, 100)),
    "ols.warmup": _text_of(st.integers(0, 100)),
    "seeds": _list_text(st.integers(0, 2**63), unique=True, min_size=1),
    "out": st.text("abc_01", min_size=1, max_size=8).map(lambda v: (v, v)),
}
SPLIT_PERCENT = {"split.train": 70, "split.val": 15, "split.test": 15}


def settings_of(cfg, every_kind):
    """Each key's setting as a parsed config holds it, found where the key is
    documented to land; spelled out apart from ``_KEYS``, so that a table
    entry naming the wrong field fails. ``every_kind`` maps each strategy kind
    to its TargetStrategy, whether or not ``strategies`` lists it."""
    return {
        "data.classes": cfg.data.num_classes,
        "data.per_class": cfg.data.samples_per_class,
        "data.dimension": cfg.data.dimension,
        "data.overlap": cfg.data.overlap_pairs,
        "split.train": cfg.split.train_fraction,
        "split.val": cfg.split.val_fraction,
        "split.test": cfg.split.test_fraction,
        "model.hidden": cfg.train.hidden,
        "train.epochs": cfg.train.epochs,
        "train.batch_size": cfg.train.batch_size,
        "train.learning_rate": cfg.train.learning_rate,
        "train.momentum": cfg.train.momentum,
        "train.ece_bins": cfg.train.ece_bins,
        "strategies": tuple(s.kind for s in cfg.strategies),
        "vanilla.alpha": every_kind["vanilla"].alpha,
        "cpls.beta": every_kind["cpls"].beta,
        "cpls.warmup": every_kind["cpls"].warmup_epochs,
        "ols.warmup": every_kind["ols"].warmup_epochs,
        "seeds": cfg.seeds,
        "out": str(cfg.out_dir),
    }


class TestConfigParsing:
    def test_kv_parsing(self):
        values = parse_kv_text("a=1\n# comment\n\n b = two \n")
        assert values == {"a": "1", "b": "two"}
        with pytest.raises(ParseError, match="line 2"):
            parse_kv_text("a=1\nbroken line\n")

    def test_repeated_key_rejected(self):
        # the later value used to win silently
        with pytest.raises(ParseError, match="line 3: key 'train.epochs' already set on line 1"):
            parse_kv_text("train.epochs = 5\n# again\ntrain.epochs = 7\n", "exp.cfg")

    def test_empty_key_rejected(self):
        # it used to reach config_from_values as "unknown config keys: " naming nothing
        with pytest.raises(ParseError, match="exp.cfg: line 2: expected key=value"):
            parse_kv_text("seeds = 1\n= 5\n", "exp.cfg")

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            # int() and float() read 0_1 as 1.0, 1_2 as 12 and a full-width 5 as 5
            ("train.learning_rate", "0_1", "expected a number, got '0_1'"),
            ("seeds", "1_2", "expected an integer, got '1_2'"),
            ("train.epochs", "\uff15", "expected an integer, got '\uff15'"),
            ("split.train", "0.\u0667", "expected a number, got '0.\u0667'"),
            ("data.overlap", "0:1_0", "expected an integer, got '1_0'"),
        ],
    )
    def test_numbers_must_be_plain_ascii(self, key, value, expected):
        with pytest.raises(ConfigError, match=f"^config key {re.escape(f'{key}: {expected}')}$"):
            config_from_values({key: value})

    def test_non_integer_warmup_is_named_by_its_key(self):
        settings = {"cpls.beta": 0.5, "cpls.warmup": 2.5}
        message = "config key cpls.warmup: warmup_epochs must be an integer, got 2.5"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _build(TargetStrategy, settings, "cpls", "cpls")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("data.classes", 2.5),
            ("data.per_class", True),
            ("data.dimension", 2.5),
            ("model.hidden", (6.7,)),
            ("train.epochs", True),
        ],
        ids=str,
    )
    def test_non_integer_count_is_named_by_its_key(self, key, value):
        # a config file's counts are parsed integers; a directly built value
        # is checked by the type that holds it, and named by its key
        settings = {key: parse(text, key) for key, (text, parse, *_) in _KEYS.items()}
        _, _, owner, field = _KEYS[key]
        cls = {"blob": BlobSpec, "train": TrainConfig}[owner]
        with pytest.raises(ConfigError, match=f"^config key {re.escape(key)}: {field} "):
            _build(cls, {**settings, key: value}, owner)

    def test_defaults(self):
        cfg = config_from_values({})
        assert cfg.data == BlobSpec(8, 100, dimension=8, overlap_pairs=((0, 1), (2, 3)))
        assert cfg.split.fractions == (0.70, 0.15, 0.15)
        assert cfg.train == TrainConfig((32,), 50, 32, 0.1, 0.9, 10)
        assert [s.kind for s in cfg.strategies] == ["hard", "vanilla", "ols", "cpls"]
        assert cfg.strategies[3].beta == 0.5
        assert cfg.strategies[3].warmup_epochs == 5
        assert cfg.strategies[1].alpha == 0.1
        assert len(cfg.seeds) == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_values({"train.eposh": "50"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_values({"train.epochs": "many"})
        with pytest.raises(ConfigError):
            config_from_values({"strategies": "hard,bogus"})
        with pytest.raises(ConfigError, match="seeds"):
            config_from_values({"seeds": "1,-1"})
        with pytest.raises(ConfigError, match="seeds lists 1 more than once"):
            config_from_values({"seeds": "1,2,1"})
        with pytest.raises(ConfigError):
            config_from_values({"strategies": ""})
        with pytest.raises(ConfigError):
            config_from_values({"seeds": ""})
        with pytest.raises(ConfigError, match="model.hidden"):
            config_from_values({"model.hidden": "8,,4"})

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_every_key_is_parsed_when_read(self, tmp_path, data):
        # Any one key set to an unparsable token is rejected by name, whatever
        # the source and whether or not the listed strategies use that key.
        csv_path = tmp_path / "feats.csv"
        if not csv_path.exists():
            write_feature_csv(csv_path)
        kinds = data.draw(st.lists(st.sampled_from(STRATEGY_KINDS), min_size=1, unique=True))
        base = {"strategies": ",".join(kinds)}
        if data.draw(st.booleans(), label="csv source"):
            base["data.csv"] = str(csv_path)
        key = data.draw(st.sampled_from(sorted(set(_KEYS) - {"out", "data.csv"})), label="key")
        token = data.draw(st.text(alphabet="xyz_", min_size=1, max_size=6), label="token")
        with pytest.raises((ConfigError, DomainError)) as caught:
            config_from_values({**base, key: token})
        assert key in str(caught.value) or token in str(caught.value)

    def test_csv_source(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("f0,f1,label\n0.5,1.0,0\n-1.0,2.0,2\n0.0,0.0,1\n")
        cfg = config_from_values({"data.csv": str(path)})
        assert cfg.data.num_classes == 3
        assert np.array_equal(cfg.data.features, [[0.5, 1.0], [-1.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(cfg.data.labels, [0, 2, 1])

    def test_readme_config_is_the_defaults(self):
        # The README's example config must parse as written and set every key
        # to its default, so the docs cannot drift from the package.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```\n(# experiment\.cfg\n.*?)```", readme, re.DOTALL).group(1)
        values = parse_kv_text(block, "README.md")
        config_from_values(values)
        assert values == {key: default for key, (default, *_) in _KEYS.items()}

    def test_table_sends_each_key_to_a_field_of_its_owner(self):
        sent: dict[str, list[str]] = {}
        for key, (_, _, owner, name) in _KEYS.items():
            if owner is not None:
                sent.setdefault(owner, []).append(name)
        for kind in STRATEGY_KINDS:
            assert tuple(sent.pop(kind, ())) == _KIND_FIELDS[kind]
        for owner, cls in {"blob": BlobSpec, "split": SplitSpec, "train": TrainConfig}.items():
            names = sent.pop(owner)
            assert len(set(names)) == len(names)
            assert set(names) <= {f.name for f in dataclasses.fields(cls)}
        assert sent == {}

    @pytest.mark.parametrize("cls", [BlobSpec, SplitSpec, TrainConfig])
    def test_table_is_the_only_source_of_defaults(self, cls):
        # a dataclass default would be a second value beside the key's
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_config_text_round_trips_through_the_table(self, tmp_path, data):
        # Valid values for a random subset of keys, written as config text,
        # land on their own fields; every other field keeps its default.
        assert set(VALID_VALUES) | set(SPLIT_PERCENT) == set(_KEYS) - {"data.csv"}
        pool = [*VALID_VALUES, *SPLIT_PERCENT]
        keys = data.draw(st.lists(st.sampled_from(pool), unique=True), label="keys")
        split = [key for key in keys if key in SPLIT_PERCENT]
        fractions = {}
        if split:
            # The written fractions share, in whole percents, what the others leave.
            share = 100 - sum(pct for key, pct in SPLIT_PERCENT.items() if key not in split)
            size = len(split) - 1
            cuts = st.sets(st.integers(1, share - 1), min_size=size, max_size=size)
            bounds = [0, *sorted(data.draw(cuts, label="cuts")), share]
            fractions = {key: f"0.{hi - lo:02d}" for key, lo, hi in zip(split, bounds, bounds[1:])}
        written = {
            key: (fractions[key], float(fractions[key]))
            if key in fractions
            else data.draw(VALID_VALUES[key], label=key)
            for key in keys
        }
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in written.items()))

        cfg = parse_config(path)
        all_kinds = parse_config(path, {"strategies": ",".join(STRATEGY_KINDS)}).strategies
        got = settings_of(cfg, {s.kind: s for s in all_kinds})
        defaults = {key: parse(text, key) for key, (text, parse, *_) in _KEYS.items()}
        expected = {key: defaults[key] for key in got} | {k: v for k, (_, v) in written.items()}
        assert got == expected

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    def test_parse_config_file(self, tmp_path, bom):
        # a byte-order mark, as some editors save UTF-8, is not part of the first key
        path = write_config(tmp_path)
        lines = [line for line in path.read_text().splitlines() if "=" in line]
        path.write_text(bom + "\n".join(lines) + "\n", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.data.num_classes == 4
        assert cfg.train.epochs == 4
        assert [s.kind for s in cfg.strategies] == ["hard", "cpls"]
        assert cfg.strategies[1].warmup_epochs == 1


def test_readme_library_example_runs(capsys):
    # The README's "Library use" block must run as written against the package.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    accuracy, ece_value = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= accuracy <= 1.0 and 0.0 <= ece_value <= 1.0


def test_readme_command_lines_parse():
    # The README's subcommand block must use the flags the parser defines.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\nSubcommands .*?```\n(.*?)```", readme, re.DOTALL).group(1)
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("smoothlab ")]
    assert len(lines) >= 4
    for line in lines:
        _build_parser().parse_args(shlex.split(line)[1:])


SMALL_BLOBS = {"data.classes": "3", "data.per_class": "10", "data.overlap": "0:1"}


class TestGenerate:
    def test_row_counts(self, tmp_path):
        cfg = config_from_values({"out": str(tmp_path / "data"), "seeds": "3"})
        paths = run_generate(cfg)
        # 8 classes x 100 per class at 70:15:15
        assert len(paths["train"].read_text().splitlines()) == 561  # header + rows
        assert len(paths["val"].read_text().splitlines()) == 121
        assert len(paths["test"].read_text().splitlines()) == 121

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = config_from_values(SMALL_BLOBS | {"out": str(tmp_path / "data"), "seeds": "1"})
        first = {name: path.read_bytes() for name, path in run_generate(cfg).items()}
        second = {name: path.read_bytes() for name, path in run_generate(cfg).items()}
        assert first == second

    def test_manifest_round_trip(self, tmp_path):
        cfg = config_from_values({"out": str(tmp_path / "data"), "seeds": "9,2"})
        paths = run_generate(cfg)
        values = parse_kv_text(paths["manifest"].read_text())
        blob = cfg.data
        centers = [[repr(float(v)) for v in row] for row in blob.class_centers]
        assert values == {
            "blob.classes": str(blob.num_classes),
            "blob.per_class": str(blob.samples_per_class),
            "blob.dimension": str(blob.dimension),
            "blob.overlap": ",".join(f"{a}:{b}" for a, b in blob.overlap_pairs),
            "blob.centers": ";".join(":".join(row) for row in centers),
            "seed": "9",
        }
        assert values["blob.overlap"] == "0:1,2:3"

    def test_generated_csv_loads(self, tmp_path):
        cfg = config_from_values(SMALL_BLOBS | {"out": str(tmp_path / "data"), "seeds": "1"})
        paths = run_generate(cfg)
        ds = load_csv(paths["train"])
        assert ds.num_classes == 3
        assert ds.n_features == 8


class TestTrainCommand:
    def test_artifacts_hard(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        record = run_training(cfg, cfg.strategies[0], seed=1)
        run_dir = record.artifacts["summary"].parent
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "reliability.csv").exists()
        assert (run_dir / "test_confusion.csv").exists()
        assert (run_dir / "features.csv").exists()
        # hard runs emit no validation confusion tables
        assert not (run_dir / "val_confusion.csv").exists()
        # metrics has exactly `epochs` data rows
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,phase,train_loss,val_loss,val_accuracy,val_ece"
        assert len(lines) == 1 + cfg.train.epochs
        # the feature export honors the dataset CSV contract
        feats = load_csv(run_dir / "features.csv")
        assert feats.n_features == cfg.train.hidden[-1]

    def test_artifacts_cpls(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        record = run_training(cfg, cfg.strategies[1], seed=1)
        run_dir = record.artifacts["summary"].parent
        assert record.artifacts["val_confusion"] == run_dir / "val_confusion.csv"
        assert sorted(p.name for p in run_dir.glob("*confusion*")) == [
            "test_confusion.csv", "val_confusion.csv"
        ]
        header, *rows = (run_dir / "val_confusion.csv").read_text().splitlines()
        assert header == "epoch,true_class,p0,p1,p2,p3"
        # one row per (epoch, true class), epochs in order and classes within them
        keys = [tuple(int(v) for v in row.split(",")[:2]) for row in rows]
        assert keys == [(e, y) for e in range(1, cfg.train.epochs + 1) for y in range(4)]
        assert all(len(row.split(",")) == 2 + 4 for row in rows)
        summary = (run_dir / "summary.txt").read_text().splitlines()
        assert [line for line in summary if "confusion" in line] == [
            "artifact.test_confusion=test_confusion.csv",
            "artifact.val_confusion=val_confusion.csv",
        ]

    def test_val_confusion_holds_each_epochs_table_in_the_snapshot_format(
        self, tmp_path, monkeypatch
    ):
        # Record the table history fit returns; each epoch's block of
        # val_confusion.csv, with its "epoch,true_class," prefix removed, is
        # that epoch's table written as one C-column snapshot.
        import smoothlab.experiment as experiment

        handed = []

        def recording_fit(*args):
            params, metrics, tables = fit(*args)
            handed.extend(table.copy() for table in tables)
            return params, metrics, tables

        fit = experiment.fit
        monkeypatch.setattr(experiment, "fit", recording_fit)
        cfg = parse_config(write_config(tmp_path, train_epochs=6))
        run_dir = run_training(cfg, cfg.strategies[1], seed=1).artifacts["summary"].parent
        assert len(handed) == 6
        # the tables change over the epochs, so a list of one array aliased six
        # times would not pass
        assert any(not np.array_equal(handed[0], table) for table in handed[1:])
        blocks = {}
        for line in (run_dir / "val_confusion.csv").read_text().splitlines(keepends=True)[1:]:
            epoch, _, rest = line.split(",", 2)
            blocks[int(epoch)] = blocks.get(int(epoch), "") + rest
        assert sorted(blocks) == list(range(1, 7))
        for epoch, table in enumerate(handed, start=1):
            snapshot = tmp_path / f"snapshot_{epoch}.csv"
            write_csv(snapshot, ("%.6f",) * 4, map(tuple, table.tolist()))
            assert blocks[epoch].encode() == snapshot.read_bytes()

    @pytest.mark.parametrize("kind", ["vanilla", "ols"])  # hard: test_artifacts_hard
    def test_only_cpls_writes_val_confusion(self, tmp_path, kind):
        cfg = parse_config(write_config(tmp_path, "ols.warmup = 1"), {"strategies": kind})
        record = run_training(cfg, cfg.strategies[0], seed=1)
        run_dir = record.artifacts["summary"].parent
        assert [p.name for p in run_dir.glob("*confusion*")] == ["test_confusion.csv"]
        assert "val_confusion" not in record.artifacts

    def test_summary_accuracy_matches_confusion_trace(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        record = run_training(cfg, cfg.strategies[0], seed=1)
        run_dir = record.artifacts["summary"].parent
        counts = np.array(
            [
                [int(v) for v in line.split(",")]
                for line in (run_dir / "test_confusion.csv").read_text().splitlines()
            ]
        )
        summary = parse_kv_text((run_dir / "summary.txt").read_text())
        assert float(summary["test_accuracy"]) == round(np.trace(counts) / counts.sum(), 6)
        assert summary["strategy"] == "hard"
        assert int(summary["seed"]) == 1


class TestCompare:
    def test_table_layout(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        table_path, records = run_compare(cfg)
        assert len(records) == 2  # 2 strategies x 1 seed
        lines = table_path.read_text().splitlines()
        assert lines[0] == "strategy,seed,test_accuracy,test_ece_x100"
        # 2 per-run rows + 2 aggregate rows per strategy
        assert len(lines) == 1 + 2 + 4
        assert lines[3].startswith("hard,median,")
        assert lines[4].startswith("hard,mean,")

    def test_duplicate_strategy_rejected(self, tmp_path):
        # a second run of a kind would overwrite the first's directory and
        # put two identical blocks into comparison.csv
        path = write_config(tmp_path, strategies="cpls,hard,cpls")
        with pytest.raises(ConfigError, match="'cpls' more than once"):
            parse_config(path)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seeds", (1, 1), "seeds lists 1 more than once"),
            ("strategies", ("hard", "hard"), "strategies lists 'hard' more than once"),
            ("seeds", (1, -3), "seeds: expected non-negative integers, got -3"),
        ],
        ids=["repeated-seed", "repeated-kind", "negative-seed"],
    )
    def test_directly_built_config_checked_before_anything_is_written(
        self, tmp_path, field, value, message
    ):
        # A repeated seed once wrote a comparison.csv that counted seed 1
        # twice; a repeated kind published --out with every run listed four
        # times, then failed rewriting the shared records' paths twice.
        cfg = parse_config(write_config(tmp_path, seeds="1,2"))
        if field == "strategies":
            value = tuple({s.kind: s for s in cfg.strategies}[kind] for kind in value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_compare(dataclasses.replace(cfg, **{field: value}))
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_used_out_dir_refused_and_left_unchanged(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        out_dir = tmp_path / "runs"
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        assert out_dir / "comparison.csv" in before
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg_path), "--seed", "7"]) == 1
        assert f"output directory {out_dir} already exists" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        assert after == before

    def test_out_dir_with_a_run_summary_refused(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_training(cfg, cfg.strategies[0], seed=1)
        before = sorted(cfg.out_dir.rglob("*"))
        with pytest.raises(ConfigError, match=re.escape(str(cfg.out_dir))):
            run_compare(cfg)
        assert sorted(cfg.out_dir.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["empty", "leftover", "cwd"])
    def test_existing_out_dir_refused_and_left_unchanged(self, tmp_path, capsys, monkeypatch, kind):
        # an empty dir, a run dir without a summary, or --out . (not renamed over)
        out_dir = tmp_path / "runs"
        out_dir.mkdir()
        if kind == "leftover":
            (out_dir / "cpls_seed1").mkdir()
            (out_dir / "cpls_seed1" / "val_confusion.csv").write_text("epoch,true_class,p0\n")
        cfg_path = write_config(tmp_path)
        out_arg = str(out_dir)
        if kind == "cwd":
            monkeypatch.chdir(out_dir)
            out_arg = "."
        before = sorted((p, p.is_file() and p.read_bytes()) for p in tmp_path.rglob("*"))
        assert main(["compare", "--config", str(cfg_path), "--out", out_arg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: output directory {out_arg} already exists; compare into a new one"]
        assert sorted((p, p.is_file() and p.read_bytes()) for p in tmp_path.rglob("*")) == before

    def test_order_does_not_change_values(self, tmp_path):
        cfg_a = parse_config(write_config(tmp_path, strategies="hard,cpls"))
        out_b = tmp_path / "runs_b"
        path_b = tmp_path / "exp_b.cfg"
        path_b.write_text(
            FAST_CONFIG.format(out=out_b).replace("strategies = hard,cpls", "strategies = cpls,hard")
        )
        cfg_b = parse_config(path_b)
        _, records_a = run_compare(cfg_a)
        _, records_b = run_compare(cfg_b)
        a = {(r.strategy, r.seed): (r.test_accuracy, r.test_ece) for r in records_a}
        b = {(r.strategy, r.seed): (r.test_accuracy, r.test_ece) for r in records_b}
        assert a == b

    def test_requires_two_strategies(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, strategies="hard"))
        with pytest.raises(ConfigError):
            run_compare(cfg)

    def test_failure_names_strategy_and_seed(self, tmp_path, monkeypatch):
        cfg = parse_config(write_config(tmp_path))
        import smoothlab.experiment as experiment

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(experiment, "run_single", boom)
        with pytest.raises(RuntimeError, match=r"strategy=hard seed=1"):
            experiment.run_compare(cfg)
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


class TestStacks:
    """Compares whose seeds of one strategy train in lockstep, in one process."""

    @settings(max_examples=200, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10**6), unique=True, min_size=1, max_size=40),
        data=st.data(),
    )
    def test_chunks_are_contiguous_cover_each_seed_once_and_keep_config_order(self, seeds, data):
        count = data.draw(st.integers(1, len(seeds)))
        chunks = _chunks(tuple(seeds), count)
        assert len(chunks) == count
        # concatenated in order they give the seeds back, so each chunk is a
        # contiguous run of them and the records come back in config order
        assert [seed for chunk in chunks for seed in chunk] == seeds
        sizes = [len(chunk) for chunk in chunks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    @settings(max_examples=200, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10**6), unique=True, min_size=1, max_size=40),
        kinds=st.integers(2, len(STRATEGY_KINDS)),
        cap=st.integers(1, 100),
        data=st.data(),
    )
    def test_plan_cuts_each_workers_chunk_into_even_stacks_within_the_cap(
        self, seeds, kinds, cap, data
    ):
        import smoothlab.experiment as experiment

        workers = data.draw(st.integers(1, len(seeds)))
        cfg = config_from_values(
            {"seeds": ",".join(map(str, seeds)), "strategies": ",".join(STRATEGY_KINDS[:kinds])}
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "_stack_cap", lambda sizes, batch_size: cap)
            plan = _plan(cfg, workers)
        most = max(1, cap // kinds)  # seeds, each one run per strategy
        stacks = [stack for mine in plan for stack in mine]
        assert [seed for stack in stacks for seed in stack] == seeds
        assert all(1 <= len(stack) <= most for stack in stacks)
        # the stacks of each worker's chunk: as few as the cap allows, even sizes
        assert len(plan) == workers
        for chunk, mine in zip(_chunks(tuple(seeds), workers), plan):
            assert len(mine) == -(-len(chunk) // most)
            assert tuple(seed for stack in mine for seed in stack) == chunk
            sizes = [len(stack) for stack in mine]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plans_of_the_benchmark_workloads(self, workers):
        default = config_from_values({})
        wide = config_from_values(
            {
                "data.classes": "32",
                "data.per_class": "400",
                "data.dimension": "32",
                "model.hidden": "128,128",
                "train.batch_size": "128",
                "ols.warmup": "2",
                "cpls.warmup": "2",
                "train.epochs": "4",
                "seeds": "1,2",
            }
        )
        halves = [[(1, 2, 3, 4, 5)], [(6, 7, 8, 9, 10)]]
        assert _plan(default, workers) == ([[tuple(range(1, 11))]] if workers == 1 else halves)
        assert _plan(wide, workers) == ([[(1,), (2,)]] if workers == 1 else [[(1,)], [(2,)]])

    @staticmethod
    def poison(monkeypatch, seeds):
        """Give every run of ``seeds`` a NaN initial weight."""
        import smoothlab.trainer as trainer

        real_init = trainer.init_params

        def poisoned(sizes, seed):
            params = real_init(sizes, seed)
            if seed in seeds:
                params.weights[0][0, 0] = np.nan
            return params

        monkeypatch.setattr(trainer, "init_params", poisoned)

    def test_non_finite_loss_names_the_first_failing_seed_in_config_order(
        self, tmp_path, monkeypatch
    ):
        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        self.poison(monkeypatch, {3, 2})
        cfg = parse_config(write_config(tmp_path, seeds="3,1,2"))
        message = (
            "run failed for strategy=hard seed=3: non-finite training loss at epoch 1, batch 0"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run_compare(cfg)

    def test_non_finite_loss_names_the_same_run_whatever_the_worker_count(
        self, tmp_path, monkeypatch
    ):
        from smoothlab.experiment import _run_stack

        self.poison(monkeypatch, {3, 2})
        cfg = parse_config(write_config(tmp_path, seeds="3,1,2"))
        assert _plan(cfg, 1) == [[(3, 1, 2)]] and _plan(cfg, 2) == [[(3, 1)], [(2,)]]
        named = []
        for workers in (1, 2):
            with pytest.raises(RuntimeError) as caught:
                for stack in (stack for mine in _plan(cfg, workers) for stack in mine):
                    _run_stack(cfg, stack)
            named.append(str(caught.value))
        message = (
            "run failed for strategy=hard seed=3: non-finite training loss at epoch 1, batch 0"
        )
        assert named == [message, message]

    def test_failure_of_the_whole_stack_names_every_seed(self, tmp_path, monkeypatch):
        import smoothlab.experiment as experiment
        import smoothlab.trainer as trainer

        def boom(self, x, targets):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(trainer._ParamStack, "loss_and_gradients", boom)
        cfg = parse_config(write_config(tmp_path, seeds="3,1,2"))
        message = "run failed for strategies=hard,cpls seeds=3,1,2: synthetic failure"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run_compare(cfg)

    def test_a_stack_holds_every_strategy_of_as_many_seeds_as_the_cap_allows(
        self, tmp_path, monkeypatch
    ):
        import smoothlab.experiment as experiment

        stacked, alone = [], []
        real_fit_stack, real_run_single = experiment._fit_stack, experiment.run_single

        def fit_stack(splits, config, strategies, seeds):
            stacked.append(([strategy.kind for strategy in strategies], list(seeds)))
            return real_fit_stack(splits, config, strategies, seeds)

        def run_single(splits, cfg, strategy, seed, run_dir):
            alone.append((strategy.kind, seed))
            return real_run_single(splits, cfg, strategy, seed, run_dir)

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        # five runs: two seeds of the two strategies
        monkeypatch.setattr(experiment, "_stack_cap", lambda sizes, batch_size: 5)
        monkeypatch.setattr(experiment, "_fit_stack", fit_stack)
        monkeypatch.setattr(experiment, "run_single", run_single)
        run_compare(parse_config(write_config(tmp_path, seeds="3,1,2")))
        assert stacked == [(["hard", "cpls"], [3, 1])]
        assert alone == [("hard", 2), ("cpls", 2)]

    def test_failure_writing_one_run_names_its_seed(self, tmp_path, monkeypatch):
        import smoothlab.experiment as experiment

        real_emit = experiment._emit_run

        def emit(test, cfg, strategy, seed, *args):
            if strategy.kind == "cpls" and seed == 1:
                raise OSError("disk full")
            return real_emit(test, cfg, strategy, seed, *args)

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(experiment, "_emit_run", emit)
        cfg = parse_config(write_config(tmp_path, seeds="3,1,2"))
        with pytest.raises(RuntimeError, match=r"^run failed for strategy=cpls seed=1: disk full$"):
            run_compare(cfg)
        # the hard runs and cpls seed 3 were written, into a sibling now gone
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.fixture
def children(monkeypatch):
    """The child processes started in this test, in the order they started."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


class TestSeedWorkers:
    """Compares whose seeds run on worker child processes."""

    def test_uneven_chunks_give_the_bytes_of_one_process(self, tmp_path, monkeypatch):
        # seeds 3,1 stack on one worker and 2 runs alone on the other; at one
        # seed per stack, the first worker runs two stacks
        import smoothlab.experiment as experiment

        # a warning in a worker child fails its compare, as one in this
        # process does under the filterwarnings setting
        monkeypatch.setenv("PYTHONWARNINGS", "error")

        cfg_path = write_config(
            tmp_path, "strategies = hard,ols,cpls", train_epochs=2, seeds="3,1,2"
        )
        trees = []
        for cpus, one_seed_stacks in ((1, False), (2, False), (2, True)):
            monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
            if one_seed_stacks:
                monkeypatch.setattr(experiment, "_stack_cap", lambda sizes, batch_size: 1)
                assert _plan(parse_config(cfg_path), cpus) == [[(3,), (1,)], [(2,)]]
            out = tmp_path / f"cpus{cpus}{'-one-seed-stacks' * one_seed_stacks}"
            assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
            files = [p for p in out.rglob("*") if p.is_file()]
            trees.append({p.relative_to(out): p.read_bytes() for p in files})
        assert trees[0] == trees[1] == trees[2]
        rows = trees[0][Path("comparison.csv")].decode().splitlines()[1:10]
        assert [row.split(",")[1] for row in rows] == ["3", "1", "2"] * 3

    def test_failure_in_the_last_stack_on_a_worker_names_its_run_and_leaves_nothing(
        self, tmp_path, monkeypatch, children
    ):
        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiment, "_stack_cap", lambda sizes, batch_size: 1)
        # At this rate seed 3's validation probabilities overflow; seeds 1
        # and 2 train to the end.
        cfg_path = write_config(
            tmp_path,
            "strategies = hard,ols,cpls",
            "train.learning_rate = 6e19",
            train_epochs=2,
            seeds="1,2,3",
        )
        cfg = parse_config(cfg_path)
        assert _plan(cfg, 2) == [[(1,), (2,)], [(3,)]]
        with pytest.raises(RuntimeError, match=r"^run failed for strategy=hard seed=3: "):
            run_compare(cfg)
        assert len(children) == 2 and all(child.returncode is not None for child in children)
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_failure_in_a_worker_names_the_first_run_and_leaves_nothing(
        self, tmp_path, monkeypatch, children
    ):
        import smoothlab.experiment as experiment

        # two workers whatever this machine's CPU count
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        cfg = parse_config(write_config(tmp_path, "train.learning_rate = 1e300", seeds="1,2"))
        # Only the prefix: TestDivergingRun pins a whole diverging run's line.
        with pytest.raises(RuntimeError, match=r"^run failed for strategy=hard seed=1: "):
            run_compare(cfg)
        assert len(children) == 2 and all(child.returncode is not None for child in children)
        assert dict(os.environ) == environ
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_worker_that_exits_without_an_outcome_names_its_seeds_and_status(
        self, tmp_path, monkeypatch, children
    ):
        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiment, "_BOOTSTRAP", "import sys; sys.exit(3)")
        cfg = parse_config(write_config(tmp_path, seeds="1,2,3"))
        message = "the worker running seeds=1,2 exited with status 3 without an outcome"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run_compare(cfg)
        assert len(children) == 2 and all(child.returncode is not None for child in children)
        # neither the output directory nor the hidden sibling it was built in
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_worker_whose_outcome_does_not_unpickle_names_its_seeds_and_status(
        self, tmp_path, monkeypatch, capsys, children
    ):
        import pickle

        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        # an outcome cut short, as a child that fails while writing it leaves
        bootstrap = "import os, pickle\nos.write(1, pickle.dumps([1, 2, 3])[:-3])\n"
        monkeypatch.setattr(experiment, "_BOOTSTRAP", bootstrap)
        cfg_path = write_config(tmp_path, seeds="1,2,3")
        message = "the worker running seeds=1,2 exited with status 0 without an outcome"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$") as caught:
            run_compare(parse_config(cfg_path))
        assert isinstance(caught.value.__cause__, pickle.UnpicklingError)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert len(children) == 4 and all(child.returncode is not None for child in children)
        # neither an output directory nor the hidden sibling it was built in
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_interrupt_while_two_workers_run_kills_and_reaps_both(
        self, tmp_path, monkeypatch, children
    ):
        import signal

        import smoothlab.experiment as experiment

        class Interrupted:
            """A child's stdout whose reader is interrupted while both run."""

            def __init__(self, pipe):
                self.pipe = pipe

            def read(self):
                assert [child.poll() for child in children] == [None, None]
                raise KeyboardInterrupt

            def close(self):
                self.pipe.close()

        class Started(subprocess.Popen):  # the fixture's recording Popen
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.stdout = Interrupted(self.stdout)

        monkeypatch.setattr(subprocess, "Popen", Started)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        cfg = parse_config(write_config(tmp_path, seeds="1,2"))
        with pytest.raises(KeyboardInterrupt):
            run_compare(cfg)
        assert [child.returncode for child in children] == [-signal.SIGKILL] * 2
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_unguarded_script_compares_on_two_workers_and_leaves_no_child(self, tmp_path):
        # A worker child runs the compare's own bootstrap, not the caller's main
        # module, so a script needs no if __name__ == "__main__": guard.
        from test_golden import GOLDEN, SRC, assert_matches_golden

        out = tmp_path / "out"
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import subprocess\n"
            "import smoothlab.experiment as experiment\n"
            "from smoothlab import parse_config, run_compare\n"
            "started = []\n"
            "class Recorded(subprocess.Popen):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        super().__init__(*args, **kwargs)\n"
            "        started.append(self)\n"
            "subprocess.Popen = Recorded\n"
            "experiment._usable_cpus = lambda: 2\n"
            f"cfg = parse_config({str(GOLDEN / 'tiny_compare.cfg')!r}, {{'out': {str(out)!r}}})\n"
            "run_compare(cfg)\n"
            "print([child.returncode for child in started])\n"
        )
        # The children write their errors into the captured stderr, so
        # returning within the timeout also shows that none outlived the script.
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[0, 0]"]
        assert_matches_golden(out)


# A config whose learning rate overflows every run's first steps.
DIVERGING_CONFIG = """
seeds = 3,4,1
strategies = hard,cpls
train.learning_rate = 1e300
data.per_class = 20
train.epochs = 2
"""
DIVERGED = "run failed for strategy=hard seed=3: non-finite training loss at epoch 1, batch 1"


class TestDivergingRun:
    """A run whose training overflows is reported once, by name, with no
    numpy warning, by every command and whatever the worker count."""

    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(DIVERGING_CONFIG)
        return path

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
    def test_compare_prints_one_error_line(self, tmp_path, cfg_path, capfd, monkeypatch, cpus):
        import smoothlab.experiment as experiment

        # the worker children write to the inherited fd 2, which capfd reads
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capfd.readouterr() == ("", f"error: {DIVERGED}\n")
        # neither the output directory nor the hidden sibling it was built in
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_train_prints_the_same_line(self, tmp_path, cfg_path, capfd):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capfd.readouterr() == ("", f"error: {DIVERGED}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_run_training_raises_the_named_failure_chained_to_the_trainers(self, cfg_path):
        cfg = parse_config(cfg_path)
        with pytest.raises(RuntimeError, match=f"^{re.escape(DIVERGED)}$") as caught:
            run_training(cfg, cfg.strategies[0], 3)
        assert isinstance(caught.value.__cause__, NumericError)
        assert not cfg.out_dir.exists()

    @pytest.mark.parametrize("command", ["compare", "train"])
    def test_warnings_as_errors_change_nothing(self, tmp_path, cfg_path, command):
        from test_golden import SRC

        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "smoothlab", command, "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {DIVERGED}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


OVERFLOWED = "error: cannot standardize column 0 (f0): its values overflow\n"
# cli.main with experiment._usable_cpus patched to the given count, as
# `python -m smoothlab` runs it; the workers inherit the interpreter's -W flags.
PATCHED_CLI = (
    "import sys\n"
    "import smoothlab.experiment as experiment\n"
    "from smoothlab.cli import main\n"
    "experiment._usable_cpus = lambda: {cpus}\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class TestOverflowingCsvColumn:
    """A data.csv column whose values overflow standardization is refused
    once, by name, before anything is written, by every command, whatever
    the worker count and with warnings as errors."""

    @pytest.fixture(params=[1e200, 1e308], ids=["1e200", "1e308"])
    def cfg_path(self, tmp_path, request):
        # f0 holds +-magnitude, so its variance (or its mean) overflows
        rows = [(request.param * (-1) ** (i % 3), (i % 7) / 10, i % 2) for i in range(60)]
        write_csv(tmp_path / "big.csv", ("%r", "%r", "%d"), rows, ("f0", "f1", "label"))
        path = tmp_path / "exp.cfg"
        path.write_text("data.csv = big.csv\ntrain.epochs = 3\n")
        return path

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_one_error_line_names_the_column(
        self, tmp_path, cfg_path, capfd, monkeypatch, command, cpus
    ):
        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capfd.readouterr() == ("", OVERFLOWED)
        # no run directory, no output directory and no hidden sibling
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "exp.cfg"]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_warnings_as_errors_change_nothing(self, tmp_path, cfg_path, command, cpus):
        from test_golden import SRC

        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", PATCHED_CLI.format(cpus=cpus), command,
             "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", OVERFLOWED)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "exp.cfg"]


def snapshot(root):
    """Every entry under ``root``, hidden ones included, with a file's bytes."""
    return sorted((p, p.is_file() and p.read_bytes()) for p in root.rglob("*"))


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
class TestMissingOutParents:
    """A compare into an ``--out`` whose parents are missing makes them only
    when it publishes: a compare that fails or is interrupted leaves nothing."""

    NESTED = ("nest", "deeper", "out")

    def test_failing_compare_leaves_nothing(self, tmp_path, capfd, monkeypatch, cpus):
        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        cfg_path = write_config(tmp_path, "train.learning_rate = 1e300", seeds="1,2")
        before = snapshot(tmp_path)
        out = tmp_path.joinpath(*self.NESTED)
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run failed for strategy=hard seed=1: ")
        assert snapshot(tmp_path) == before

    def test_interrupted_compare_leaves_nothing(self, tmp_path, monkeypatch, cpus):
        import smoothlab.experiment as experiment

        def interrupted(run_dir):
            raise KeyboardInterrupt  # after every run, just before the publish

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiment, "run_report", interrupted)
        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        before = snapshot(tmp_path)
        out = tmp_path.joinpath(*self.NESTED)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--config", str(cfg_path), "--out", str(out)])
        assert snapshot(tmp_path) == before

    def test_successful_compare_publishes_the_tree_of_a_flat_out(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        import smoothlab.experiment as experiment

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        nested, flat = tmp_path.joinpath(*self.NESTED), tmp_path / "flat"
        for out in (nested, flat):
            assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "flat", "nest"]
        assert [p.name for p in nested.parent.iterdir()] == ["out"]
        trees = [[(p.relative_to(out), b) for p, b in snapshot(out)] for out in (nested, flat)]
        assert trees[0] == trees[1]


def test_compare_out_under_a_regular_file_fails_before_any_run(tmp_path, capsys, monkeypatch):
    import smoothlab.experiment as experiment

    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiment, "_run_seeds", no_run)
    cfg_path = write_config(tmp_path, seeds="1,2")
    (tmp_path / "file").write_text("")
    before = snapshot(tmp_path)
    out = tmp_path / "file" / "sub" / "out"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / "file") in err[0]
    assert snapshot(tmp_path) == before


def test_records_carry_no_per_epoch_metrics(tmp_path, monkeypatch):
    # the per-epoch history is each run's metrics.csv; a worker's outcome
    # pickles its records, so they carry only the table's inputs
    import pickle

    import smoothlab.experiment as experiment

    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    _, records = run_compare(parse_config(write_config(tmp_path, seeds="1,2")))
    fields = [f.name for f in dataclasses.fields(records[0])]
    assert fields == ["strategy", "seed", "test_accuracy", "test_ece", "artifacts"]
    assert len(records) == 4 and b"EpochMetrics" not in pickle.dumps(records)


@pytest.mark.parametrize("command", ["train", "compare"])
def test_summary_epochs_counts_the_metrics_rows(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, train_epochs=3, seeds="1,2")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    summaries = sorted(out.glob("*/summary.txt"))
    assert len(summaries) == {"train": 1, "compare": 4}[command]
    for summary in summaries:
        epochs = parse_kv_text(summary.read_text())["epochs"]
        rows = (summary.parent / "metrics.csv").read_text().splitlines()[1:]
        assert epochs == "3" and len(rows) == 3


def test_every_written_file_is_opened_with_lf_line_endings(tmp_path, monkeypatch):
    """Every file a command writes is opened with ``newline="\\n"``, so no
    platform gives it CRLF line endings: pathlib opens through ``io.open``,
    ``datasets._csv_file`` through the builtin."""
    import builtins
    import io

    import smoothlab.experiment as experiment

    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    real_open = io.open
    opened = []

    def recording_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None,
                       *args, **kwargs):
        if set(mode) & set("wax+"):
            opened.append((Path(file).name, newline))
        return real_open(file, mode, buffering, encoding, errors, newline, *args, **kwargs)

    cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "one")]) == 0
    assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")]) == 0
    assert main(["report", str(tmp_path / "one")]) == 0
    monkeypatch.undo()
    names = {name for name, _ in opened}
    assert {"manifest.txt", "summary.txt", "comparison.csv", "report.csv"} <= names
    assert [entry for entry in opened if entry[1] != "\n"] == []


def write_feature_csv(path):
    """A 3-class, 2-feature CSV of 60 rows, for configs with a CSV source."""
    blobs = generate_confusable_blobs(BlobSpec(3, 20, dimension=2, overlap_pairs=()), seed=0)
    save_csv(blobs, path)
    return path


class TestCsvSource:
    def test_parsed_once_per_compare(self, tmp_path, monkeypatch):
        # only the split depends on the seed, so four seeds share one parse
        import smoothlab.experiment as experiment

        csv_path = write_feature_csv(tmp_path / "feats.csv")
        calls = []

        def counting_load_csv(path):
            calls.append(path)
            return load_csv(path)

        monkeypatch.setattr(experiment, "load_csv", counting_load_csv)
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}", "seeds = 1,2,3,4")
        assert main(["compare", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "runs").glob("*_seed*/summary.txt"))) == 8

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_malformed_csv_rejected_when_read(self, tmp_path, capsys, command):
        csv_path = tmp_path / "feats.csv"
        csv_path.write_text("f0,f1,label\n0.5,1.0,0\n0.5,oops,1\n")
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}")
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "row 3" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_single_class_csv_rejected_naming_the_file(self, tmp_path, capsys, command):
        # it used to fail with a bare "num_classes must be >= 2, got 1"
        csv_path = tmp_path / "feats.csv"
        csv_path.write_text("f0,f1,label\n0.5,1.0,0\n0.25,2.0,0\n1.5,0.5,0\n")
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}")
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {csv_path}: every label is 0; a dataset needs at least 2 classes"]
        assert not (tmp_path / "runs").exists()

    def test_csv_skipping_a_class_rejected_naming_the_file(self, tmp_path, capsys):
        # it used to fail at the split as "class 1 has 0 samples", naming no file
        csv_path = tmp_path / "feats.csv"
        csv_path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,0\n4.0,2\n5.0,2\n6.0,2\n")
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {csv_path}: no row has label 1; labels must cover every class from 0 to 2"
        ]
        assert not (tmp_path / "runs").exists()

    def test_class_too_small_for_the_test_split_rejected(self, tmp_path, capsys):
        # 3 samples split 2/1/0, so features.csv would lack class 1 and
        # load_csv would refuse it
        labels = np.repeat([0, 1, 2], [20, 3, 20])
        csv_path = tmp_path / "feats.csv"
        save_csv(LabeledDataset(np.arange(labels.size, dtype=float)[:, None], labels, 3), csv_path)
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: class 1 has 3 samples, too few to give the test split one"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "compare"])
    def test_generated_class_too_small_for_the_test_split_rejected(
        self, tmp_path, capsys, command
    ):
        cfg_path = write_config(tmp_path, "data.per_class = 4")
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: class 0 has 4 samples, too few to give the test split one"]
        assert not (tmp_path / "runs").exists()

    def test_relative_path_is_read_beside_the_config(self, tmp_path, monkeypatch):
        # data.csv is relative to the config file; out stays relative to the
        # working directory, as --out is
        sub = tmp_path / "sub"
        sub.mkdir()
        write_feature_csv(sub / "feats.csv")
        (sub / "exp.cfg").write_text(
            "data.csv = feats.csv\ntrain.epochs = 2\nstrategies = hard,cpls\n"
            "cpls.warmup = 1\nseeds = 1\nout = runs\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--config", "sub/exp.cfg"]) == 0
        confusion = tmp_path / "runs" / "hard_seed1" / "test_confusion.csv"
        assert len(confusion.read_text().splitlines()) == 3  # the CSV's classes
        assert not (sub / "runs").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "data.classes = 5",
            "data.per_class = 30",
            "data.dimension = 2",
            "data.overlap = 0:2",
        ],
    )
    def test_generator_key_beside_csv_rejected(self, tmp_path, capsys, line):
        # a stale synthetic setting in a CSV config used to pass unread
        csv_path = write_feature_csv(tmp_path / "feats.csv")
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}", line)
        assert main(["compare", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        key = line.partition(" =")[0]
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
        assert not (tmp_path / "runs").exists()

    def test_generate_refused(self, tmp_path, capsys):
        csv_path = write_feature_csv(tmp_path / "feats.csv")
        cfg_path = write_config(tmp_path, f"data.csv = {csv_path}")
        assert main(["generate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "data.csv is set" in err[0]
        assert not (tmp_path / "runs").exists()


class TestNonUtf8Input:
    """An input file that is not UTF-8 fails its command naming the file and
    the offset of its first bad byte, and nothing is written."""

    def test_config_fails_compare(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cfg_path.write_bytes(b"# caf\xe9\n" + cfg_path.read_bytes())
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg_path}: not UTF-8 text: byte 0xe9 at offset 5"]
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_csv_cell_fails_train(self, tmp_path, capsys):
        csv_path = write_feature_csv(tmp_path / "feats.csv")
        data = csv_path.read_bytes()
        first_cell = data.index(b"\n") + 1
        csv_path.write_bytes(data[:first_cell] + b"\xe9" + data[first_cell:])
        cfg_path = write_config(tmp_path, "data.csv = feats.csv")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {csv_path}: not UTF-8 text: byte 0xe9 at offset {first_cell}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "feats.csv"]

    def test_run_summary_fails_report(self, tmp_path, capsys):
        cfg = parse_config(write_config(tmp_path))
        summary = run_training(cfg, cfg.strategies[0], seed=1).artifacts["summary"]
        summary.write_bytes(summary.read_bytes().replace(b"=hard", b"=h\xe9rd"))
        assert main(["report", str(cfg.out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {summary}: not UTF-8 text: byte 0xe9 at offset 10"]
        assert not (cfg.out_dir / "report.csv").exists()


class TestReport:
    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="no runs found"):
            run_report(tmp_path)

    def test_single_run_table(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        record = run_training(cfg, cfg.strategies[0], seed=1)
        text = run_report(cfg.out_dir)
        assert "hard" in text
        assert f"{record.test_accuracy:.6f}" in text
        report = (cfg.out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "strategy,seed,test_accuracy,test_ece"
        assert report[1].startswith(f"hard,1,{record.test_accuracy:.6f}")

    def test_idempotent(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_training(cfg, cfg.strategies[0], seed=1)
        first_text = run_report(cfg.out_dir)
        first_csv = (cfg.out_dir / "report.csv").read_bytes()
        second_text = run_report(cfg.out_dir)
        second_csv = (cfg.out_dir / "report.csv").read_bytes()
        assert first_text == second_text
        assert first_csv == second_csv

    def test_reads_one_level_so_a_parent_of_two_compares_has_no_runs(self, tmp_path, capsys):
        # report of the parent would list both compares' runs as one table
        cfg_path = write_config(tmp_path)
        parent = tmp_path / "compares"
        for name in ("a", "b"):
            assert main(["compare", "--config", str(cfg_path), "--out", str(parent / name)]) == 0
        capsys.readouterr()
        with pytest.raises(ConfigError, match=f"^no runs found under {re.escape(str(parent))}$"):
            run_report(parent)
        assert not (parent / "report.csv").exists()
        for name in ("a", "b"):
            rows = run_report(parent / name).splitlines()[2:]
            assert [row.split()[:2] for row in rows] == [["cpls", "1"], ["hard", "1"]]

    def test_corrupt_summary_errors(self, tmp_path):
        run_dir = tmp_path / "broken_run"
        run_dir.mkdir()
        (run_dir / "summary.txt").write_text("strategy=hard\n")
        with pytest.raises(ParseError, match="corrupt"):
            run_report(tmp_path)

    def test_summary_seed_read_as_a_config_integer(self, tmp_path, capsys):
        # int() read seed=1_2 as seed 12
        cfg = parse_config(write_config(tmp_path))
        record = run_training(cfg, cfg.strategies[0], seed=1)
        summary = record.artifacts["summary"]
        summary.write_text(summary.read_text().replace("seed=1\n", "seed=1_2\n"))
        assert main(["report", str(cfg.out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "corrupt run summary" in err[0]
        assert not (cfg.out_dir / "report.csv").exists()

    @pytest.mark.parametrize(
        "seed, why",
        [("1.5", "invalid literal for int() with base 10: '1.5'"),
         ("1_2", "not a plain ASCII number: '1_2'")],
        ids=["1.5", "1_2"],
    )
    def test_corrupt_seed_is_named_as_the_summarys_field(self, tmp_path, capsys, seed, why):
        # it was reported as "config key seed: expected an integer, got ..."
        cfg = parse_config(write_config(tmp_path))
        summary = run_training(cfg, cfg.strategies[0], seed=1).artifacts["summary"]
        summary.write_text(summary.read_text().replace("seed=1\n", f"seed={seed}\n"))
        assert main(["report", str(cfg.out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {summary}: corrupt run summary (seed: {why})\n"


class TestCli:
    def test_generate_and_report_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out

    def test_train_command(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--strategy", "cpls"]) == 0
        out = capsys.readouterr().out
        assert "strategy=cpls" in out

    def test_used_run_dir_refused_and_left_unchanged(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--strategy", "cpls"]) == 0
        run_dir = tmp_path / "runs" / "cpls_seed1"
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert run_dir / "val_confusion.csv" in before
        capsys.readouterr()
        # a second run into the same dir would replace some of the first run's
        # files and could leave others behind
        cfg_path = write_config(tmp_path, train_epochs=2)
        assert main(["train", "--config", str(cfg_path), "--strategy", "cpls"]) == 1
        assert f"run directory {run_dir} is not empty" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert after == before

    def test_generate_into_a_compare_dir_refused_and_left_unchanged(self, tmp_path, capsys):
        # the splits and manifest would land in the compare's published tree
        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        mix = tmp_path / "mix"
        assert main(["compare", "--config", str(cfg_path), "--out", str(mix)]) == 0
        capsys.readouterr()
        before = {p: p.is_file() and p.read_bytes() for p in mix.rglob("*")}
        assert main(["generate", "--config", str(cfg_path), "--out", str(mix)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: output directory {mix} holds a compare's runs; generate into a new one"
        ]
        assert {p: p.is_file() and p.read_bytes() for p in mix.rglob("*")} == before

    def test_train_into_a_compare_dir_refused_and_left_unchanged(self, tmp_path, capsys):
        # the run would join the compare's in report, though its table never counted it
        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        mix = tmp_path / "mix"
        assert main(["compare", "--config", str(cfg_path), "--out", str(mix)]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in mix.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(cfg_path), "--out", str(mix), "--seed", "7"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(mix) in err[0]
        assert {p: p.read_bytes() for p in mix.rglob("*") if p.is_file()} == before
        assert not (mix / "hard_seed7").exists()

    def test_compare_command_writes_nothing_under_out_after_the_publish(
        self, tmp_path, capsys, monkeypatch
    ):
        # The command once wrote report.csv after the rename: its tree then
        # differed from run_compare's, and a stop before that write left a
        # tree without report.csv that a rerun refused.
        import smoothlab.cli as cli

        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        library = tmp_path / "library"
        run_compare(parse_config(cfg_path, {"out": str(library)}))
        real_run_compare = cli.run_compare

        def then_age_every_entry(cfg):
            result = real_run_compare(cfg)
            for path in [cfg.out_dir, *cfg.out_dir.rglob("*")]:
                os.utime(path, ns=(0, 0))
            return result

        monkeypatch.setattr(cli, "run_compare", then_age_every_entry)
        command = tmp_path / "command"
        assert main(["compare", "--config", str(cfg_path), "--out", str(command)]) == 0
        assert "cpls" in capsys.readouterr().out
        entries = [command, *command.rglob("*")]
        assert [path for path in entries if path.stat().st_mtime_ns != 0] == []

        def files(out):
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        assert files(command) == files(library)
        assert Path("report.csv") in files(library)

    def test_stopped_compare_leaves_no_out_dir_and_a_rerun_succeeds(
        self, tmp_path, capsys, monkeypatch
    ):
        import smoothlab.experiment as experiment

        real_run_seeds = experiment._run_seeds

        def stopped(cfg):
            real_run_seeds(cfg)
            raise KeyboardInterrupt

        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        cut = tmp_path / "cut"
        monkeypatch.setattr(experiment, "_run_seeds", stopped)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--config", str(cfg_path), "--out", str(cut)])
        monkeypatch.undo()
        # neither the output directory nor the hidden sibling it was built in
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]
        cfg = parse_config(cfg_path, {"out": str(cut)})
        table_path, records = run_compare(cfg)
        assert table_path == cut / "comparison.csv" and table_path.is_file()
        # each run's summary, metrics, reliability, test confusion and features,
        # and each cpls run's val_confusion
        paths = [path for record in records for path in record.artifacts.values()]
        assert len(paths) == 4 * 5 + 2
        assert all(path.parent.parent == cut and path.is_file() for path in paths)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cut", "exp.cfg"]
        plain = tmp_path / "plain"
        plain.mkdir()
        assert stat.S_IMODE(cut.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_compare_and_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        out_dir = tmp_path / "runs"
        assert (out_dir / "comparison.csv").exists()
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 0
        assert "cpls" in capsys.readouterr().out
        written = sorted(out_dir.rglob("*.csv"))
        assert {p.relative_to(out_dir).as_posix() for p in written} >= {
            "comparison.csv",
            "report.csv",
            "hard_seed1/metrics.csv",
            "hard_seed1/test_confusion.csv",
            "cpls_seed1/metrics.csv",
            "cpls_seed1/test_confusion.csv",
            "cpls_seed1/val_confusion.csv",
        }
        for path in written:
            assert_artifact_csv(path)

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["generate", "--config", str(cfg_path), "--out", str(override)]) == 0
        assert (override / "train.csv").exists()
        compare_dir = tmp_path / "compare_elsewhere"
        assert main(["compare", "--config", str(cfg_path), "--out", str(compare_dir)]) == 0
        assert (compare_dir / "comparison.csv").exists()
        assert (compare_dir / "hard_seed1" / "summary.txt").exists()
        assert not (tmp_path / "runs").exists()

    def test_seed_zero_overrides_config(self, tmp_path, capsys):
        # 0 is falsy: the override must still replace the config's seeds = 1
        cfg_path = write_config(tmp_path)
        assert main(["compare", "--config", str(cfg_path), "--seed", "0"]) == 0
        out_dir = tmp_path / "runs"
        assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == [
            "cpls_seed0",
            "hard_seed0",
        ]
        rows = (out_dir / "comparison.csv").read_text().splitlines()[1:3]
        assert [row.split(",")[1] for row in rows] == ["0", "0"]

    @pytest.mark.parametrize("seed", ["1_2", "\uff15"])
    def test_seed_is_parsed_as_the_seeds_key(self, tmp_path, capsys, seed):
        # --seed once read 1_2 as 12 and a full-width 5 as 5, which seeds = refuses
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--seed", seed]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config key seeds: ")
        assert not (tmp_path / "runs").exists()

    def test_seed_takes_a_list_of_seeds(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, train_epochs=2, seeds="1,2")
        assert main(["compare", "--config", str(cfg_path), "--seed", "3,4"]) == 0
        rows = (tmp_path / "runs" / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows if row.split(",")[1].isdigit()] == [
            ["hard", "3"], ["hard", "4"], ["cpls", "3"], ["cpls", "4"]
        ]

    def test_train_strategy_missing_from_config_list(self, tmp_path, capsys):
        # strategies = hard,cpls in the file; ols still takes ols.warmup from it
        cfg_path = write_config(tmp_path, ols_warmup=3)
        assert main(["train", "--config", str(cfg_path), "--strategy", "ols"]) == 0
        assert "strategy=ols seed=1" in capsys.readouterr().out
        metrics = (tmp_path / "runs" / "ols_seed1" / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in metrics[1:]] == ["warmup"] * 3 + ["hybrid"]

    @pytest.mark.parametrize("command", ["generate", "train", "compare"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path)
        assert main([command, "--config", str(cfg_path), "--seed", "-2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seeds" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_repeated_seed_rejected(self, tmp_path, capsys):
        # a repeated seed would train into one run dir twice and count that
        # seed twice in the comparison's medians and means
        cfg_path = write_config(tmp_path, seeds="1,2,1")
        assert main(["compare", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seeds" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "compare"])
    def test_repeated_key_rejected(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text() + "train.epochs = 7\n")
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "key 'train.epochs' already set on line" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "compare"])
    @pytest.mark.parametrize(
        "line, setting",
        [
            ("train.epochs = 0", "train.epochs"),
            ("train.batch_size = -3", "train.batch_size"),
            ("train.learning_rate = nan", "train.learning_rate"),
            ("train.momentum = 1", "train.momentum"),
            ("train.momentum = 1.5", "train.momentum"),
            ("train.ece_bins = 0", "train.ece_bins"),
            ("model.hidden = 0", "model.hidden"),
            ("model.hidden = 8,-2", "model.hidden"),
            # a stray comma used to be skipped, silently changing the list
            ("model.hidden = 8,,4", "model.hidden"),
            ("model.hidden = ,", "model.hidden"),
            ("strategies = hard,,cpls", "strategies"),
            ("strategies = hard,cpls,", "strategies"),
            # strategies = hard,cpls: every kind's settings are checked, since
            # train --strategy may still pick a kind the list leaves out
            ("vanilla.alpha = banana", "vanilla.alpha"),
            ("ols.warmup = -3", "ols.warmup"),
            ("cpls.beta = 2", "cpls.beta"),
            # the generator's unit is the noise standard deviation, and every
            # run standardizes its splits, so no key scales the blobs
            ("data.spread = 2.0", "unknown config keys: data.spread"),
        ],
    )
    def test_bad_train_setting_rejected_when_read(self, tmp_path, capsys, command, line, setting):
        cfg_path = write_config(tmp_path, line)
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and setting in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "compare"])
    @pytest.mark.parametrize(
        "line",
        [
            "data.classes = 1",
            "data.per_class = 0",
            "data.dimension = 0",
            "data.overlap = 0:1,1:2",
            "data.overlap = 0:9",
            "split.train = 0.9",
            "split.val = 0",
            "model.hidden = 0",
            "train.epochs = 0",
            "train.batch_size = -3",
            "train.learning_rate = nan",
            "train.momentum = 1.5",
            "train.ece_bins = 0",
            "vanilla.alpha = 1",
            "cpls.beta = 2",
            "cpls.warmup = -1",
        ],
    )
    def test_out_of_range_data_or_split_value_names_its_key(
        self, tmp_path, capsys, command, line
    ):
        # the message names the config key, not the dataclass field behind it;
        # a rule over several fields names every key of its group
        data_keys = "data.classes/data.per_class/data.dimension/data.overlap"
        groups = {
            "data.overlap = 0:1,1:2": data_keys,
            "data.overlap = 0:9": data_keys,
            "split.train = 0.9": "split.train/split.val/split.test",
        }
        keys = groups.get(line, line.partition(" =")[0])
        cfg_path = write_config(tmp_path, line)
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config key {keys}: ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "line", ["model.hidden = 0", "train.epochs = 0", "train.batch_size = -3"]
    )
    def test_rejected_run_leaves_no_run_dir(self, tmp_path, capsys, line):
        cfg_path = write_config(tmp_path, line)
        out_dir = tmp_path / "runs"
        assert main(["compare", "--config", str(cfg_path)]) == 1
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.count("error: ") == 2
        assert not list(out_dir.glob("*_seed*"))
