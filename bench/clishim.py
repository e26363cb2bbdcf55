"""Run one ``whichway`` CLI command with tracing on, like the console script.

Usage: python bench/clishim.py SPANS_JSON ARG...

The spans recorded during ``whichway.cli.main(ARG...)`` are written to
SPANS_JSON for the benchmark process to adopt under its operation span.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from whichway.cli import main as cli_main

    tracer = Tracer()
    with tracer:
        rc = cli_main(argv)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
