"""Spans around calls into smoothlab's layers, recorded from outside the package.

``Tracer.install`` replaces each hooked function where its caller looks it up
(module globals or class attributes) with a wrapper that records one span per
call: name, parent span, run id, start and end.  Spans stay in memory until
the traced invocation ends; ``uninstall`` puts every original back.

``layer_metrics`` turns the spans of one traced ``compare`` into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

from measure import percentile

ROOT_SPAN = "cli.main"

# (module, attribute path, span name).  Each entry names the place where the
# caller resolves the function, not where it is defined: ``fit`` looks up
# ``train_epoch`` in ``smoothlab.trainer``'s globals, ``run_single`` looks up
# ``fit`` in ``smoothlab.experiment``'s globals, and so on.
HOOKS = (
    ("smoothlab.cli", "run_compare", "experiment.run_compare"),
    ("smoothlab.experiment", "prepare_splits", "datasets.prepare_splits"),
    ("smoothlab.experiment", "generate_confusable_blobs", "datasets.load_source"),
    ("smoothlab.experiment", "load_csv", "datasets.load_source"),
    ("smoothlab.experiment", "save_csv", "datasets.save_csv"),
    ("smoothlab.experiment", "run_single", "experiment.run_single"),
    ("smoothlab.experiment", "fit", "trainer.fit"),
    ("smoothlab.experiment", "evaluate", "trainer.evaluate"),
    ("smoothlab.experiment", "extract_features", "trainer.extract_features"),
    ("smoothlab.experiment", "ece", "calibration.ece"),
    ("smoothlab.experiment", "reliability_bins", "calibration.reliability"),
    ("smoothlab.experiment", "write_reliability_csv", "calibration.reliability"),
    ("smoothlab.experiment", "write_confusion_csv", "smoothing.write_confusion_csv"),
    ("smoothlab.trainer", "train_epoch", "trainer.train_epoch"),
    ("smoothlab.trainer", "loss_and_gradients", "trainer.loss_and_gradients"),
    ("smoothlab.trainer", "evaluate", "trainer.evaluate"),
    ("smoothlab.trainer", "ece", "calibration.ece"),
    ("smoothlab.smoothing", "OnlineLabelSmoother.update_batch", "smoothing.update_batch"),
    ("smoothlab.smoothing", "ConfusionTracker.accumulate_counts", "smoothing.tracker"),
    ("smoothlab.smoothing", "ConfusionTracker.normalize", "smoothing.tracker"),
)


class Tracer:
    """Collects spans as tuples (id, parent, name, run, start_ns, end_ns, note)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[tuple[int, str | None]] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent, run = self._stack[-1] if self._stack else (None, None)
        if name == "experiment.run_single":  # (splits, cfg, strategy, seed, run_dir, ...)
            run = f"{args[2].kind}_seed{args[3]}"
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children number after it
        self._stack.append((sid, run))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, run, start, end, None)
        if name == "datasets.load_source":  # (path) or (spec, seed): the last names the input
            note = {"input": f"{fn.__name__}:{args[-1]}", "rows": int(result.n_samples)}
            self.spans[sid] = (sid, parent, name, run, start, end, note)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self):
        """Replace every hooked function; a hook whose target is gone is listed in
        ``missing`` and skipped, so the untouched layers are still measured."""
        for module_name, path, name in HOOKS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced invocation (seconds unless named otherwise)."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durations(name):
        return [(s[5] - s[4]) / 1e9 for s in by_name.get(name, ())]

    def busy(name):
        return sum(durations(name))

    def self_s(name):
        return sum(own[s[0]] for s in by_name.get(name, ())) / 1e9

    def calls(name):
        return len(by_name.get(name, ()))

    loads = [s[6] for s in by_name.get("datasets.load_source", ())]
    inputs = {n["input"] for n in loads}
    step_us = [d * 1e6 for d in durations("trainer.loss_and_gradients")]
    runs = durations("experiment.run_single")
    return {
        "datasets.prepare_splits.busy_s": busy("datasets.prepare_splits"),
        "datasets.load_source.calls": len(loads),
        "datasets.load_source.busy_s": busy("datasets.load_source"),
        "datasets.load_source.rows": sum(n["rows"] for n in loads),
        "datasets.load_source.loads_per_input": len(loads) / len(inputs) if inputs else 0.0,
        "datasets.save_csv.calls": calls("datasets.save_csv"),
        "datasets.save_csv.busy_s": busy("datasets.save_csv"),
        "smoothing.update_batch.calls": calls("smoothing.update_batch"),
        "smoothing.update_batch.busy_s": busy("smoothing.update_batch"),
        "smoothing.tracker.busy_s": busy("smoothing.tracker"),
        "smoothing.write_confusion_csv.calls": calls("smoothing.write_confusion_csv"),
        "smoothing.write_confusion_csv.busy_s": busy("smoothing.write_confusion_csv"),
        "trainer.fit.busy_s": busy("trainer.fit"),
        "trainer.fit.self_s": self_s("trainer.fit"),
        "trainer.train_epoch.busy_s": busy("trainer.train_epoch"),
        "trainer.step_update.self_s": self_s("trainer.train_epoch"),
        "trainer.loss_and_gradients.calls": len(step_us),
        "trainer.loss_and_gradients.busy_s": sum(step_us) / 1e6,
        "trainer.loss_and_gradients.p50_us": percentile(step_us, 50),
        "trainer.loss_and_gradients.p99_us": percentile(step_us, 99),
        "trainer.evaluate.calls": calls("trainer.evaluate"),
        "trainer.evaluate.busy_s": busy("trainer.evaluate"),
        "trainer.extract_features.busy_s": busy("trainer.extract_features"),
        "calibration.ece.calls": calls("calibration.ece"),
        "calibration.ece.busy_s": busy("calibration.ece"),
        "calibration.reliability.busy_s": busy("calibration.reliability"),
        "experiment.run_single.calls": len(runs),
        "experiment.run_single.p50_s": percentile(runs, 50),
        "experiment.run_single.p75_s": percentile(runs, 75),
        "experiment.run_single.self_s": self_s("experiment.run_single"),
        "experiment.run_compare.self_s": self_s("experiment.run_compare"),
        "trace.unattributed_s": self_s(ROOT_SPAN),
    }


def write_spans(spans, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[tuple]:
    with open(Path(path), encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]
