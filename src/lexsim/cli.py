"""Command-line front end: one subcommand per model, JSON config in, CSV out.

Exit codes: 0 success; 1 rejected configuration or command line; 2 model or
I/O failure at run time, running out of memory included; 130 interrupted
(Ctrl-C). Errors are written to stderr as a single line of the form
"error: <category>: <detail>", or "error: interrupted". The "wrote" line goes
to stdout, or to stderr when an output is stdout itself.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import MODELS, load_config
from .errors import ConfigError, LexsimError
from .runner import run

_HELP = {
    "equilibrium": "solve contract completeness where marginal benefit meets marginal cost",
    "settle": "settlement ranges and settle/trial outcomes for a batch of disputes",
    "frivolous": "resolve the nuisance-filing game for both plaintiff types",
    "evolve": "simulate selective relitigation of a rule population",
    "composition": "shift docket shares under a flat per-case cost cut",
    "sweep": "grid-run another model over one or more config axes",
}


def _u64(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a base-10 integer: got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2^64): got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexsim",
        description="simulation models of litigation volume and the speed of legal change",
    )
    sub = parser.add_subparsers(dest="model", required=True, metavar="model")
    for name in MODELS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="CSV output path")
        p.add_argument("--svg", help="optional SVG chart path")
        p.add_argument("--seed", type=_u64, help="overrides the config seed")
    return parser


def _one_line(err: BaseException) -> str:
    return " ".join(str(err).split())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage; fold its exit into our code space
        return 0 if e.code == 0 else 1
    try:
        cfg = load_config(args.config, args.model)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.output_path, cfg.svg_path = args.out, args.svg
        result = run(cfg)
    except ConfigError as e:
        print(f"error: config: {_one_line(e)}", file=sys.stderr)
        return 1
    except (LexsimError, UnicodeEncodeError) as e:  # or output text UTF-8 cannot hold
        print(f"error: model: {_one_line(e)}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {_one_line(e)}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: model: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    stream = sys.stderr if result.to_stdout else sys.stdout
    line = "wrote " + " and ".join(p for p in (result.csv_path, result.svg_path) if p is not None)
    encoding = getattr(stream, "encoding", None)  # escaped as stderr escapes what it cannot hold
    try:
        print(line.encode(encoding, "backslashreplace").decode(encoding) if encoding else line,
              file=stream, flush=True)
    except OSError as e:  # a closed pipe, say; the outputs are already in place
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())  # no retry at exit
        print(f"error: io: {_one_line(e)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
