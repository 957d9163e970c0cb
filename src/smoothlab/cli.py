"""Command-line entry point: generate / train / compare / report."""

from __future__ import annotations

import argparse
import sys

from .errors import SmoothlabError
from .experiment import _report, parse_config, run_compare, run_generate, run_report, run_training
from .smoothing import STRATEGY_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--seed", help="the seeds key: one seed or a comma list (train and generate use the first)"
        )

    p_gen = sub.add_parser("generate", help="write synthetic train/val/test CSVs and a manifest")
    add_common(p_gen)

    p_train = sub.add_parser("train", help="train one strategy for one seed")
    add_common(p_train)
    p_train.add_argument(
        "--strategy", choices=STRATEGY_KINDS, help="strategy to train (default: first in config)"
    )

    p_cmp = sub.add_parser("compare", help="run every strategy x seed and emit the comparison table")
    add_common(p_cmp)

    p_rep = sub.add_parser("report", help="consolidate run summaries under a directory")
    p_rep.add_argument("run_dir", help="directory containing run summaries")
    return parser


def _load_config(args):
    """Read the config file; command-line flags override its keys."""
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seeds"] = args.seed
    if getattr(args, "strategy", None):
        overrides["strategies"] = args.strategy
    return parse_config(args.config, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            cfg = _load_config(args)
            for name, path in run_generate(cfg).items():
                print(f"{name}: {path}")
        elif args.command == "train":
            cfg = _load_config(args)
            record = run_training(cfg, cfg.strategies[0], cfg.seeds[0])
            print(
                f"strategy={record.strategy} seed={record.seed} "
                f"test_accuracy={record.test_accuracy:.6f} test_ece={record.test_ece:.6f}"
            )
            print(f"artifacts: {record.artifacts['summary'].parent}")
        elif args.command == "compare":
            cfg = _load_config(args)
            table_path, _ = run_compare(cfg)
            print(f"comparison table: {table_path}")
            # run_compare wrote report.csv before the tree became --out
            print(_report(cfg.out_dir)[0], end="")
        elif args.command == "report":
            print(run_report(args.run_dir), end="")
    except (SmoothlabError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
