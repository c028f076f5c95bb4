"""Command-line entry point.

One verb per pipeline stage plus `run` (every stage in order) and `sweep`
(gap yield across shifted thresholds). Exit codes, as in README's table:

- 0: success.
- 1: any other error: a response cache this version cannot read or write,
  a file that cannot be read or written, or a busy output directory.
- 2: a config problem, reported before any stage runs.
- 3: an upstream artifact that is missing, differs from what its stage
  last wrote, or does not parse; rerun the stages the message names.
- 4: a model endpoint failure.
"""

from __future__ import annotations

import argparse
import logging
import sqlite3
import sys
from functools import partial
from pathlib import Path

from .config import load_config
from .errors import (
    ConfigError,
    EvontreeError,
    MissingUpstreamError,
    ProtocolError,
    TransportError,
)
from .gateway import CACHE_FILE, close_all
from .pipeline import STAGE_ORDER, TABLE, RunContext, run_all, run_stage

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_MISSING_UPSTREAM = 3
EXIT_GATEWAY = 4

VERBS = ("run",) + tuple(TABLE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evontree",
        description="Elicit, confirm, and extrapolate ontology triples; "
                    "mine knowledge gaps and synthesize a training corpus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb, help=f"{verb} stage" if verb in STAGE_ORDER else verb)
        p.add_argument("--config", required=True, type=Path,
                       help="path to the run config (JSON)")
        p.add_argument("--stage-dir", type=Path, default=None,
                       help="override the output directory")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass cached responses (fresh responses are still cached)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the synthetic model seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config, stage_dir=args.stage_dir, seed=args.seed)
        ctx = RunContext(config, read_cache=not args.no_cache)
        stage = (partial(run_all, ctx) if args.command == "run"
                 else partial(run_stage, ctx, args.command))
        # The context is closed after a failed stage too, and the stage's
        # error is the one reported.
        close_all((stage, ctx.close))
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except MissingUpstreamError as exc:
        log.error("%s", exc)
        return EXIT_MISSING_UPSTREAM
    except (TransportError, ProtocolError) as exc:
        log.error("model endpoint failure: %s", exc)
        return EXIT_GATEWAY
    except EvontreeError as exc:
        log.error("%s", exc)
        return EXIT_OTHER
    except sqlite3.Error as exc:
        log.error("response cache %s failed: %s",
                  config.output.resolved_cache_dir() / CACHE_FILE, exc)
        return EXIT_OTHER
    except OSError as exc:  # its text names the file, when there is one
        log.error("file system error: %s", exc)
        return EXIT_OTHER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
