#!/usr/bin/env python3
"""The repository's benchmark of record.

Run from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Workloads: ``simulate`` (in-process simulator speed), ``reproduce``
(two passes of the paper reproduction on one cache) and ``serve``
(``repro serve`` round trips from two closed-loop clients).  See
perfbench/README.md for what each measures and why.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are BENCHMARK.json's end-to-end metrics; with ``--trace 1``
they are its per-layer metrics, from a separate, instrumented run.
Lines before it describe the run (driver, jobs, numpy, commit).
Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Keep bytecode out of the tree; the program's subprocesses get a
# private cache under the run's scratch directory instead.
sys.dont_write_bytecode = True
_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT))

from perfbench import common  # noqa: E402

WORKLOADS = ("simulate", "reproduce", "serve")
SIZES = ("full", "tiny")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.GOLDEN_SEEDS[0],
                        help="input seed (goldens pin seeds %s)"
                             % " and ".join(map(str, common.GOLDEN_SEEDS)))
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = instrumented run reporting per-layer "
                             "metrics")
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny = the self-test's inputs")
    parser.add_argument("--goldens", type=Path, default=common.GOLDENS,
                        help="golden digest file to check against")
    parser.add_argument("--write-goldens", action="store_true",
                        help="record this run's output digests into "
                             "--goldens instead of checking them")
    return parser.parse_args(argv)


def _describe(workload: str, args: argparse.Namespace,
              removed_env: "list[str]", info: dict) -> dict:
    from repro.sim.runner import batched_default
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"perfbench": workload, "seed": args.seed, "size": args.size,
            "trace": args.trace,
            "driver": "batched" if batched_default() else "scalar",
            "numpy": numpy_version, "python": sys.version.split()[0],
            "scrubbed_env": removed_env, **common.source_identity(), **info}


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {common.SRC}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    removed_env = common.scrub_environment()
    sys.path.insert(0, str(common.SRC))

    from perfbench import reproduce, serve, simulate
    module = {"simulate": simulate, "reproduce": reproduce,
              "serve": serve}[args.workload]
    goldens = common.Goldens(args.goldens, args.workload, args.size,
                             args.seed, write=args.write_goldens)
    started = time.perf_counter()
    with common.Scratch() as scratch:
        outcome = module.run(scratch, args.seed, args.seconds, args.size,
                             goldens, bool(args.trace))
    if not args.trace:
        outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
        outcome.metrics["success_rate"] = (
            (outcome.attempted - outcome.failed) / outcome.attempted
            if outcome.attempted else 0.0)
    else:
        # A layer this workload never enters from a process the
        # benchmark can observe did no work there: it reads 0.
        for name, entry in common.load_metric_spec().items():
            if entry["kind"] == "per_layer":
                outcome.metrics.setdefault(name, 0.0)
    goldens.save()
    outcome.info["wall_s"] = round(time.perf_counter() - started, 3)
    print("# " + json.dumps(_describe(args.workload, args, removed_env,
                                      outcome.info), sort_keys=True))
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps(common.render_result(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
