"""Traced cold launch of the CLI.

Usage: python -X importtime perfbench/launcher.py --spans SPANS_JSON CLI_ARGS...

Times ``import phqm.cli`` as a span, installs the span wrappers, runs
``phqm.cli.main(CLI_ARGS)``, restores the wrappers and writes the spans to
SPANS_JSON.  Exits with the CLI's exit code.
"""

import sys
import time

import spans


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print(__doc__, file=sys.stderr)
        return 64
    path, argv = sys.argv[2], sys.argv[3:]
    rec = spans.Recorder()
    start = time.perf_counter()
    import phqm.cli

    rec.add(spans.IMPORT_SPAN, start, time.perf_counter())
    restore = spans.install(rec)
    try:
        return phqm.cli.main(argv)
    finally:
        restore()
        rec.dump(path)


if __name__ == "__main__":
    sys.exit(main())
