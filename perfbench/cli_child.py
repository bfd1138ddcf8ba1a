"""Traced stand-in for `python -m lexsim.cli`, one per op of the traced cli_fixtures pass.

    python3 perfbench/cli_child.py SPANS_JSON <lexsim cli arguments...>

Records when the interpreter reached this file, `import lexsim.cli`, and
`lexsim.cli.main(argv)` with every public lexsim function wrapped, then
writes those spans to SPANS_JSON for the worker and exits with main's code.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    import lexsim.cli

    tracer.add_span("cli.import", t0, time.perf_counter())
    tracer.install()
    try:
        code = lexsim.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"t_start": T_START, "spans": tracer.spans()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
