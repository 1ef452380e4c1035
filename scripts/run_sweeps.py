#!/usr/bin/env python3
"""Exhaustive verification sweeps over small symmetric groups.

Runs every structural suite (traversal identities, graph-class lemmas,
event factorization, relabel dichotomy, exact membership bounds, prefix
fixing decay) and exits non-zero if any suite reports a violation.
"""

import argparse
import sys

from permprod.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pair-n", type=int, default=5, help="pair sweeps cover all of S_n x S_n")
    parser.add_argument("--single-n", type=int, default=7, help="single-factor sweeps cover S_n")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    argv_out = [
        "verify-lemmas",
        "--pair-n", str(args.pair_n),
        "--single-n", str(args.single_n),
    ]
    if args.output:
        argv_out += ["--output", args.output]
    return cli_main(argv_out)


if __name__ == "__main__":
    sys.exit(main())
