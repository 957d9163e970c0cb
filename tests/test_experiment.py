import re
from pathlib import Path

import numpy as np
import pytest

from smoothlab import (
    BlobSpec,
    ConfigError,
    ParseError,
    load_csv,
    parse_config,
    run_compare,
    run_generate,
    run_report,
    run_training,
)
from smoothlab.cli import main
from smoothlab.experiment import _DEFAULTS, config_from_values, parse_kv_text

FAST_CONFIG = """
# small experiment used by the test-suite
data.source = synthetic
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


def write_config(tmp_path, text=FAST_CONFIG, **extra):
    out = tmp_path / "runs"
    body = text.format(out=out)
    for key, value in extra.items():
        body += f"\n{key.replace('_', '.')} = {value}"
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return path


class TestConfigParsing:
    def test_kv_parsing(self):
        values = parse_kv_text("a=1\n# comment\n\n b = two \n")
        assert values == {"a": "1", "b": "two"}
        with pytest.raises(ParseError, match="line 2"):
            parse_kv_text("a=1\nbroken line\n")

    def test_defaults(self):
        cfg = config_from_values({})
        assert cfg.data == BlobSpec(8, 100, dimension=8, overlap_pairs=((0, 1), (2, 3)))
        assert cfg.split.fractions == (0.70, 0.15, 0.15)
        assert cfg.hidden == (32,)
        assert cfg.epochs == 50
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
        with pytest.raises(ConfigError):
            config_from_values({"data.source": "images"})
        with pytest.raises(ConfigError):
            config_from_values({"data.source": "csv"})  # needs data.csv
        with pytest.raises(ConfigError, match="seeds"):
            config_from_values({"seeds": "1,-1"})
        with pytest.raises(ConfigError):
            config_from_values({"strategies": ""})
        with pytest.raises(ConfigError):
            config_from_values({"seeds": ""})

    def test_csv_source(self):
        cfg = config_from_values({"data.source": "csv", "data.csv": "feats.csv"})
        assert cfg.data == Path("feats.csv")

    def test_readme_config_is_the_defaults(self):
        # The README's example config must parse as written and set every key
        # it names to its default, so the docs cannot drift from the package.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```\n(# experiment\.cfg\n.*?)```", readme, re.DOTALL).group(1)
        values = parse_kv_text(block, "README.md")
        config_from_values(values)
        assert len(values) >= 20
        assert values == {key: _DEFAULTS[key] for key in values}

    def test_parse_config_file(self, tmp_path):
        path = write_config(tmp_path)
        cfg = parse_config(path)
        assert cfg.data.num_classes == 4
        assert cfg.epochs == 4
        assert [s.kind for s in cfg.strategies] == ["hard", "cpls"]
        assert cfg.strategies[1].warmup_epochs == 1


class TestGenerate:
    def test_row_counts(self, tmp_path):
        cfg = config_from_values({"out": str(tmp_path / "data")})
        paths = run_generate(cfg, seed=3)
        # 8 classes x 100 per class at 70:15:15
        assert len(paths["train"].read_text().splitlines()) == 561  # header + rows
        assert len(paths["val"].read_text().splitlines()) == 121
        assert len(paths["test"].read_text().splitlines()) == 121

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = config_from_values(
            {"out": str(tmp_path / "data"), "data.classes": "3", "data.per_class": "10", "data.overlap": "0:1"}
        )
        first = {name: path.read_bytes() for name, path in run_generate(cfg, seed=1).items()}
        second = {name: path.read_bytes() for name, path in run_generate(cfg, seed=1).items()}
        assert first == second

    def test_manifest_round_trip(self, tmp_path):
        cfg = config_from_values({"out": str(tmp_path / "data")})
        paths = run_generate(cfg, seed=9)
        values = parse_kv_text(paths["manifest"].read_text())
        blob = cfg.data
        centers = [[repr(float(v)) for v in row] for row in blob.class_centers]
        assert values == {
            "blob.classes": str(blob.num_classes),
            "blob.per_class": str(blob.samples_per_class),
            "blob.dimension": str(blob.dimension),
            "blob.spread": repr(blob.spread),
            "blob.overlap": ",".join(f"{a}:{b}" for a, b in blob.overlap_pairs),
            "blob.centers": ";".join(":".join(row) for row in centers),
            "seed": "9",
        }
        assert values["blob.overlap"] == "0:1,2:3"

    def test_generated_csv_loads(self, tmp_path):
        cfg = config_from_values(
            {"out": str(tmp_path / "data"), "data.classes": "3", "data.per_class": "10", "data.overlap": "0:1"}
        )
        paths = run_generate(cfg, seed=1)
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
        # hard runs emit no confusion snapshots
        assert not list(run_dir.glob("confusion_epoch_*.csv"))
        # metrics has exactly `epochs` data rows
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,phase,train_loss,val_loss,val_accuracy,val_ece"
        assert len(lines) == 1 + cfg.epochs
        # the feature export honors the dataset CSV contract
        feats = load_csv(run_dir / "features.csv")
        assert feats.n_features == cfg.hidden[-1]

    def test_artifacts_cpls(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        record = run_training(cfg, cfg.strategies[1], seed=1)
        run_dir = record.artifacts["summary"].parent
        snapshots = sorted(run_dir.glob("confusion_epoch_*.csv"))
        assert len(snapshots) == cfg.epochs
        rows = snapshots[0].read_text().splitlines()
        assert len(rows) == 4 and all(len(r.split(",")) == 4 for r in rows)

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

    def test_used_out_dir_refused_and_left_unchanged(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        out_dir = tmp_path / "runs"
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        assert out_dir / "comparison.csv" in before
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg_path), "--seed", "7"]) == 1
        assert f"output directory {out_dir} already holds runs" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        assert after == before

    def test_out_dir_with_a_run_summary_refused(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_training(cfg, cfg.strategies[0], seed=1)
        before = sorted(cfg.out_dir.rglob("*"))
        with pytest.raises(ConfigError, match=re.escape(str(cfg.out_dir))):
            run_compare(cfg)
        assert sorted(cfg.out_dir.rglob("*")) == before

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

    def test_corrupt_summary_errors(self, tmp_path):
        run_dir = tmp_path / "broken_run"
        run_dir.mkdir()
        (run_dir / "summary.txt").write_text("strategy=hard\n")
        with pytest.raises(ParseError, match="corrupt"):
            run_report(tmp_path)


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
        assert run_dir / "confusion_epoch_4.csv" in before
        capsys.readouterr()
        # a shorter run would leave the first run's later confusion snapshots behind
        cfg_path = write_config(tmp_path, train_epochs=2)
        assert main(["train", "--config", str(cfg_path), "--strategy", "cpls"]) == 1
        assert f"run directory {run_dir} is not empty" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert after == before

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

    @pytest.mark.parametrize(
        "line", ["model.hidden = 0", "train.epochs = 0", "train.batch_size = -3"]
    )
    def test_rejected_run_leaves_no_run_dir(self, tmp_path, capsys, line):
        # MlpConfig and TrainConfig reject these only once a run starts.
        cfg_path = write_config(tmp_path, text=FAST_CONFIG + line + "\n")
        out_dir = tmp_path / "runs"
        assert main(["compare", "--config", str(cfg_path)]) == 1
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.count("error: ") == 2
        assert not list(out_dir.glob("*_seed*"))
