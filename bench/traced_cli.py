"""Run one coldamp CLI command in this process with the tracer installed.

Usage: python bench/traced_cli.py SPANS_JSON CLI_ARG...

Behaves like `python -m coldamp.cli CLI_ARG...` (same output, same exit
code, same traceback on an escaping exception) and also writes the
spans of the call, and the number of warnings it raised, to SPANS_JSON.
"""

import sys
import warnings

import tracer

import coldamp.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return coldamp.cli.main(argv)
    finally:
        t.warnings = len(caught)
        t.uninstall()
        t.dump_json(spans_path)


if __name__ == "__main__":
    sys.exit(main())
