"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --config CFG --out DIR [--spans FILE] [--probe]

Imports smoothlab, parses the workload config, then runs ``smoothlab compare``
through ``smoothlab.cli.main``.  With ``--spans`` the layers are traced and the
spans are written to FILE after the run.  With ``--probe`` it stops after
set-up and reports the training-split size instead.  The last line of stdout
is a JSON object; ``setup_done`` is a CLOCK_MONOTONIC reading in seconds that
the parent compares with its own reading taken before launch.
"""

import argparse
import json
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import smoothlab
    from smoothlab import cli
    from smoothlab.experiment import parse_config, prepare_splits

    cfg = parse_config(args.config)
    setup_done = _clock()
    result = {"setup_done": setup_done, "smoothlab": smoothlab.__file__}

    if args.probe:
        import numpy

        result["n_train"] = prepare_splits(cfg, cfg.seeds[0])[0].n_samples
        result["numpy"] = numpy.__version__
        result["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    else:
        argv = ["compare", "--config", args.config, "--out", args.out]
        if args.spans:
            from tracing import ROOT_SPAN, Tracer, write_spans

            with Tracer() as tracer:
                start = _clock()
                rc = tracer.call(ROOT_SPAN, cli.main, (argv,))
                wall = _clock() - start
            write_spans(tracer.spans, args.spans)
            result["missing_hooks"] = tracer.missing
        else:
            start = _clock()
            rc = cli.main(argv)
            wall = _clock() - start
        sys.stdout.flush()
        result.update(rc=rc, wall_s=wall)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
