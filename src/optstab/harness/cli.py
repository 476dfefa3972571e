"""Command-line entry point.

Subcommands map one-to-one onto experiments (plus the early-stopping
calculator):

    optstab stability  [--config FILE] [--key VALUE ...]   stability_scaling
    optstab risk       [--config FILE] [--key VALUE ...]   risk_decomposition
    optstab lecam      [--config FILE] [--key VALUE ...]   lecam_audit
    optstab lemmas     [--config FILE] [--key VALUE ...]   lemma_audit
    optstab bounds     [--config FILE] [--key VALUE ...]   bounds_table
    optstab earlystop  --n N --eta ETA [--lipschitz L] [--radius R]

Every config key except ``experiment`` is a ``--key-with-dashes`` flag, whose
text is typed and checked as in a file (:mod:`optstab.harness.config`).  Two options
before the subcommand set logging only, not the config: ``--log-level``
(debug, info, warning or error; default info) for optstab's loggers, and
``--debug``, which logs a runtime error's traceback.

Exit codes: 0 success, 1 a usage error (a bad config file, key or value, from
file or flag, an unknown or malformed flag or a missing subcommand included) or
another validation error, 2 runtime error, 3 audit completed but failed its
acceptance checks (lemmas/lecam/bounds).
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
from .config import ExperimentConfig, build_config, load_config
from .experiments import run_experiment
from .reports import write_report

_SUBCOMMAND_EXPERIMENT = {
    "stability": "stability_scaling",
    "risk": "risk_decomposition",
    "lecam": "lecam_audit",
    "lemmas": "lemma_audit",
    "bounds": "bounds_table",
}

_AUDITED = {"lecam_audit", "lemma_audit", "bounds_table"}
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


def _add_common(p: argparse.ArgumentParser) -> None:
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
    for name in _SUBCOMMAND_EXPERIMENT:
        _add_common(sub.add_parser(name))
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
        overrides = {key: getattr(args, key) for key in _FLAG_KEYS}  # None: unset
        overrides["experiment"] = _SUBCOMMAND_EXPERIMENT[args.command]
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
            if cfg.experiment in _AUDITED and not report.passed:
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
