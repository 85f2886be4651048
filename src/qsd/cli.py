"""`qsd` command line: run one experiment from a config file.

    qsd <experiment-kind> --config <path> [--out <dir>] [--seed <u64>]

Writes report.txt and report.csv (one check per line, fixed field order)
plus experiment-specific CSV artifacts into the output directory.  Exit
status 0 iff every check passed or the experiment is estimation-only;
1 on failed checks or an estimator without evidence (a one-line error);
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certificates import FailedA2Error, NoMinorizationError
from .chains import ChainFormatError, EmptyOverlapError, NoCertificateError
from .config import ConfigError, ExperimentConfig
from .experiments import RUNNERS
from .particles import ExtinctionError
from .simulate import ZeroSurvivorError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qsd", description=__doc__)
    parser.add_argument("kind", help="experiment kind: " + " | ".join(sorted(RUNNERS)))
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=None, help="output directory (default [output] dir or ./out)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    args = parser.parse_args(argv)

    if args.kind not in RUNNERS:
        print(f"error: unknown experiment kind {args.kind!r}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig.from_file(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        kind = cfg.get_str("experiment", "kind")
        if kind != args.kind:
            raise ConfigError(
                f"{cfg.path}: config is for kind {kind!r}, invoked as {args.kind!r}"
            )
        seed = args.seed if args.seed is not None else cfg.get_int("experiment", "seed", None)
        if seed is None:
            raise ConfigError(
                f"{cfg.path}: missing required field 'seed' in [experiment] "
                "(a master seed is mandatory; pass --seed to override)"
            )
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{cfg.path}: seed {seed} is outside [0, 2**64)")
        out = args.out or cfg.get_str("output", "dir", "out")
        os.makedirs(out, exist_ok=True)
        report, estimation_only = RUNNERS[args.kind](cfg, out, seed)
    except (ConfigError, ChainFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ZeroSurvivorError,
        NoMinorizationError,
        FailedA2Error,
        ExtinctionError,
        NoCertificateError,
        EmptyOverlapError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report.write(os.path.join(out, "report.txt"), os.path.join(out, "report.csv"))
    sys.stdout.write(report.to_text())
    if estimation_only or report.passed:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
