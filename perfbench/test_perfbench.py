"""Tests of the benchmark's own logic: statistics, span arithmetic, output checks
and the tracer's install/restore.  Run with ``PYTHONPATH=src pytest perfbench``."""

import math

import numpy as np
import pytest

from checks import check_comparison, check_same, median_ece_gap
from measure import describe, percentile, tail_percentile
from tracing import ROOT_SPAN, Tracer, layer_metrics, self_times


# --- the percentile / sample-count rule ------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_matches_numpy_linear_method():
    values = np.random.default_rng(3).exponential(size=37).tolist()
    for q in (0, 25, 50, 75, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_describe_states_count_and_only_supported_percentiles():
    assert describe([3.0, 1.0, 2.0]) == "median=2 n=3"
    assert describe([float(v) for v in range(40)]) == "median=19.5 p75=29.25 n=40"


# --- self time on hand-built spans -----------------------------------------


def span(sid, parent, name, start, end, run=None, note=None):
    return (sid, parent, name, run, start, end, note)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, ROOT_SPAN, 0, 100),
        span(1, 0, "trainer.train_epoch", 10, 40),
        span(2, 1, "trainer.loss_and_gradients", 20, 30),
        span(3, 0, "trainer.evaluate", 50, 60),
    ]
    assert self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span(0, None, "p", 0, 100),
        span(1, 0, "a", 10, 50),
        span(2, 0, "b", 30, 70),  # overlaps a by 20
        span(3, 0, "c", 90, 120),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_layer_metrics_on_hand_built_spans():
    ms = 1_000_000
    csv = {"input": "load_csv:a", "rows": 7}
    spans = [
        span(0, None, ROOT_SPAN, 0, 100 * ms),
        span(1, 0, "experiment.run_compare", 5 * ms, 95 * ms),
        span(2, 1, "datasets.prepare_splits", 5 * ms, 15 * ms),
        span(3, 2, "datasets.load_source", 6 * ms, 14 * ms, note=csv),
        span(4, 1, "experiment.run_single", 20 * ms, 90 * ms, run="hard_seed1"),
        span(5, 4, "trainer.fit", 20 * ms, 80 * ms, run="hard_seed1"),
        span(6, 5, "trainer.train_epoch", 20 * ms, 70 * ms, run="hard_seed1"),
        span(7, 6, "trainer.loss_and_gradients", 20 * ms, 30 * ms, run="hard_seed1"),
        span(8, 6, "trainer.loss_and_gradients", 40 * ms, 60 * ms, run="hard_seed1"),
        span(9, 4, "datasets.save_csv", 85 * ms, 88 * ms, run="hard_seed1"),
        span(10, 1, "datasets.load_source", 91 * ms, 93 * ms, note=csv),
    ]
    m = layer_metrics(spans)
    assert m["trace.unattributed_s"] == pytest.approx(0.010)
    assert m["experiment.run_single.self_s"] == pytest.approx(0.007)
    assert m["trainer.fit.self_s"] == pytest.approx(0.010)
    assert m["trainer.step_update.self_s"] == pytest.approx(0.020)
    assert m["trainer.loss_and_gradients.calls"] == 2
    assert m["trainer.loss_and_gradients.busy_s"] == pytest.approx(0.030)
    assert m["trainer.loss_and_gradients.p50_us"] == pytest.approx(15000.0)
    assert m["datasets.load_source.rows"] == 14
    assert m["datasets.load_source.loads_per_input"] == 2.0
    assert m["experiment.run_compare.self_s"] == pytest.approx(0.008)
    assert m["datasets.save_csv.busy_s"] == pytest.approx(0.003)
    assert m["smoothing.update_batch.calls"] == 0


# --- the output checker ------------------------------------------------------


STRATEGIES, SEEDS = ["hard", "cpls"], [1, 2]
GOOD = (
    "strategy,seed,test_accuracy,test_ece_x100\n"
    "hard,1,0.800000,10.000000\n"
    "hard,2,0.900000,12.000000\n"
    "cpls,1,0.850000,4.000000\n"
    "cpls,2,0.850000,6.000000\n"
    "hard,median,0.850000,11.000000\n"
    "hard,mean,0.850000,11.000000\n"
    "cpls,median,0.850000,5.000000\n"
    "cpls,mean,0.850000,5.000000\n"
)


def test_checker_accepts_a_complete_table():
    assert check_comparison(GOOD, STRATEGIES, SEEDS) == []
    assert median_ece_gap(GOOD) == pytest.approx(6.0)


def test_checker_rejects_a_truncated_table():
    truncated = "".join(GOOD.splitlines(keepends=True)[:-1])
    assert check_comparison(truncated, STRATEGIES, SEEDS)
    assert check_comparison(GOOD[:-1], STRATEGIES, SEEDS)  # last line cut short


def test_checker_rejects_nan_and_out_of_range_values():
    nan_table = GOOD.replace("cpls,1,0.850000,4.000000", "cpls,1,nan,4.000000")
    assert any("nan" in p for p in check_comparison(nan_table, STRATEGIES, SEEDS))
    too_high = GOOD.replace("hard,2,0.900000,12.000000", "hard,2,1.500000,12.000000")
    assert check_comparison(too_high, STRATEGIES, SEEDS)


def test_checker_rejects_wrong_rows_and_inconsistent_summaries():
    swapped = GOOD.replace("hard,2,", "hard,3,")
    assert check_comparison(swapped, STRATEGIES, SEEDS)
    bad_median = GOOD.replace("cpls,median,0.850000,5.000000", "cpls,median,0.850000,5.100000")
    assert check_comparison(bad_median, STRATEGIES, SEEDS)


def test_non_deterministic_pair_is_rejected():
    assert check_same(["abc", "abc"]) == [True, True]
    assert check_same(["abc", "abd"]) == [True, False]


# --- the tracer against the real package -----------------------------------

TINY = """\
data.classes = 4
data.per_class = 20
data.dimension = 4
train.epochs = 3
strategies = hard,ols,cpls
ols.warmup = 1
cpls.warmup = 1
seeds = 1
"""


def _compare(tmp_path, name, tracer=None):
    from smoothlab import cli

    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    out = tmp_path / name
    argv = ["compare", "--config", str(config), "--out", str(out)]
    rc = tracer.call(ROOT_SPAN, cli.main, (argv,)) if tracer else cli.main(argv)
    assert rc == 0
    return (out / "comparison.csv").read_bytes()


def test_tracer_records_layers_restores_originals_and_keeps_outputs(tmp_path, capsys):
    pytest.importorskip("smoothlab")
    import smoothlab.experiment
    import smoothlab.smoothing
    import smoothlab.trainer

    originals = (
        smoothlab.trainer.loss_and_gradients,
        smoothlab.experiment.fit,
        smoothlab.smoothing.ConfusionTracker.normalize,
    )
    plain = _compare(tmp_path, "plain")
    with Tracer() as tracer:
        assert smoothlab.trainer.loss_and_gradients is not originals[0]
        traced = _compare(tmp_path, "traced", tracer)
    assert (
        smoothlab.trainer.loss_and_gradients,
        smoothlab.experiment.fit,
        smoothlab.smoothing.ConfusionTracker.normalize,
    ) == originals
    assert traced == plain
    assert tracer.missing == []

    names = {s[2] for s in tracer.spans}
    assert names >= {
        ROOT_SPAN, "experiment.run_compare", "datasets.prepare_splits", "datasets.load_source",
        "experiment.run_single", "trainer.fit", "trainer.train_epoch",
        "trainer.loss_and_gradients", "trainer.evaluate", "calibration.ece",
        "calibration.reliability", "smoothing.update_batch",
        "smoothing.tracker", "smoothing.write_confusion_csv", "datasets.save_csv",
    }
    runs = {s[3] for s in tracer.spans if s[2] == "trainer.loss_and_gradients"}
    assert runs == {"hard_seed1", "ols_seed1", "cpls_seed1"}
    m = layer_metrics(tracer.spans)
    assert m["experiment.run_single.calls"] == 3
    assert m["datasets.load_source.loads_per_input"] == 1.0  # one generated dataset per seed
    assert m["trainer.evaluate.calls"] == 3 * 3 + 3  # every epoch plus one test pass per run
    assert all(math.isfinite(v) and v >= 0 for v in m.values())
