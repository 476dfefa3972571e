"""Command-line entry point.

    optstab COMMAND    [--config FILE] [--key VALUE ...]
    optstab earlystop  --n N --eta ETA [--lipschitz L] [--radius R]

COMMAND runs the experiment whose subcommand it is in ``config.EXPERIMENTS``
(stability, risk, lecam, lemmas or bounds); earlystop is the early-stopping
calculator.  Every config key except ``experiment`` is a ``--key-with-dashes``
flag, whose text is typed and checked as in a file (:mod:`optstab.harness.config`).
Two options before the subcommand set logging only, not the config:
``--log-level`` (debug, info, warning or error; default info) for optstab's
loggers, and ``--debug``, which logs a runtime error's traceback.

Exit codes: 0 success, 1 a usage error (a bad config file, key or value, from
file or flag, an unknown or malformed flag or a missing subcommand included) or
another validation error, 2 runtime error, 3 the experiment completed but its
report failed its acceptance checks (``passed`` is False: only the audits lemmas,
lecam and bounds set it).
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from dataclasses import fields
from typing import Optional

from ..bounds import early_stopping_T
from ..losses import ValidationError
from .config import EXPERIMENTS, ExperimentConfig, build_config, load_config
from .experiments import run_experiment
from .reports import write_report

_FLAG_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "experiment"]


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, as a bad config value does, not argparse's 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus before a float in any form (-inf, -nan, -1e-3) starts a value, not an
        # option: argparse's own pattern takes -5 and -.5 only; no option looks like one
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValidationError(message)


def _add_common(p: argparse.ArgumentParser, experiment: str) -> None:
    p.set_defaults(experiment=experiment)
    p.add_argument("--config", help="flat key=value config file")
    for key in _FLAG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=f"config key {key}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optstab",
                     description="stability laboratory for first-order optimizers")
    parser.add_argument("--log-level", type=str.upper, default="INFO",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"))
    parser.add_argument("--debug", action="store_true",
                        help="log the traceback of a runtime error")
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment, (command, _) in EXPERIMENTS.items():
        _add_common(sub.add_parser(command), experiment)
    es = sub.add_parser("earlystop", help="iteration budget balancing both errors")
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--eta", type=float, required=True)
    es.add_argument("--lipschitz", type=float, default=1.0)
    es.add_argument("--radius", type=float, default=1.0)
    return parser


def main(argv: Optional[list] = None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    args = argparse.Namespace(debug=False)  # until parsed
    try:
        args = _parser().parse_args(argv)
        logging.getLogger("optstab").setLevel(args.log_level)
        if args.command == "earlystop":
            T = early_stopping_T(args.n, args.eta, args.lipschitz, args.radius)
            print(T)
            return 0
        # the subcommand's experiment, and each flag's text (None: unset)
        overrides = {key: getattr(args, key) for key in ["experiment", *_FLAG_KEYS]}
        if args.config:
            cfg = load_config(args.config, overrides)
        else:
            cfg = build_config({}, overrides)
        report = run_experiment(cfg)
        files = write_report(report, cfg.out)
        for path in files:
            print(path)
        if report.passed is not None:
            print(f"audit {'PASS' if report.passed else 'FAIL'}")
            if not report.passed:
                return 3
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        if args.debug:
            logging.getLogger(__name__).exception("runtime error traceback")
        return 2


if __name__ == "__main__":
    sys.exit(main())
