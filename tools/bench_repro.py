"""Standalone launcher for the simulator performance benchmark.

Equivalent to ``repro bench``; exists so the benchmark can be run from a
checkout without installing the package::

    PYTHONPATH=src python tools/bench_repro.py [--quick] [--out PATH]
    PYTHONPATH=src python tools/bench_repro.py --quick --baseline auto

Exits nonzero when the batched driver's statistics diverge from the
scalar oracle's — the bit-identity gate CI's bench-smoke job enforces.
With ``--baseline <file|auto>`` the fresh report is also diffed against
that baseline bench report (auto = newest committed ``BENCH_*.json``)
and a regression beyond threshold exits 3 — the sentinel CI's
bench-compare job keys on.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the simulator over the pinned matrix")
    parser.add_argument("--quick", action="store_true",
                        help="smaller budget, single repetition")
    parser.add_argument("--out", default="",
                        help="output JSON path (default BENCH_<date>.json)")
    parser.add_argument("--no-equivalence", action="store_true",
                        help="skip the stats equivalence gate")
    parser.add_argument("--baseline", default="", metavar="FILE|auto",
                        help="diff the fresh report against this baseline "
                             "bench report (auto = newest committed "
                             "BENCH_*.json); exit 3 on regression")
    args = parser.parse_args(argv)

    from repro.sim.bench import main as bench_main

    return bench_main(quick=args.quick, out=args.out,
                      check_equivalence=not args.no_equivalence,
                      baseline=args.baseline)


if __name__ == "__main__":
    sys.exit(main())
