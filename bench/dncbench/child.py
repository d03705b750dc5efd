"""Traced stand-in for `python -m dnccap`, for the cold CLI calls a traced
run samples between its operations.

    python child.py SPANS_OUT [dnc arguments ...]

Imports dnccap.cli inside an `import.dnccap` span, wraps the program's
entry points, runs `cli.main` on the remaining arguments and writes the
spans as JSON to SPANS_OUT before exiting with main's exit code.
"""

import json
import sys
import time

START = time.perf_counter()

import tracing  # noqa: E402  (sits beside this file)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    code = 1
    try:
        rec = tracer.begin("import.dnccap")
        import dnccap.cli

        tracer.end(rec)
        tracer.install()
        code = sys.modules["dnccap.cli"].main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"start": START, "end": time.perf_counter(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
