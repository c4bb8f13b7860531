"""Run one ``sqtotient`` CLI command under the span tracer.

Usage: python perfbench/cli_traced.py SPANS_JSON <sqtotient arguments...>

The traced benchmark runs call this in place of ``python -m sqtotient.cli``.
It times the import of ``sqtotient.cli`` in this fresh interpreter, wraps
the package's public functions plus the click entry point and command
callbacks, runs the command, and writes the import time and the spans to
SPANS_JSON. The exit code and output are the command's own.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from tracer import Tracer


def main():
    spans_path, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("sqtotient.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer().install()
    for name, command in cli.main.commands.items():
        command.callback = tracer.wrap(f"cli.{name}", command.callback)
    entry = tracer.wrap("cli.main", cli.main.main)
    code = 0
    try:
        entry(args=args, prog_name="sqtotient", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "names": tracer.names, "spans": tracer.spans}, handle)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
