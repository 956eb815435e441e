"""Run one lyapexp CLI invocation with span tracing and write the spans.

    python3 perfbench/traced_cli.py SPANS.json -- <lyapexp argv>

The process imports ``lyapexp.cli`` (timed as ``import_s``), patches the
modules as described in ``spans.py``, runs the same ``dispatch`` that
``python3 -m lyapexp.cli`` runs, and at exit writes
``{"import_s", "rc", "spans"}`` to SPANS.json.  Its exit code is the CLI's.
"""

import json
import sys
import time


def main():
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS.json -- ARGV...")
    started = time.perf_counter()
    import lyapexp.cli as cli
    import_s = time.perf_counter() - started

    from spans import Tracer, install
    tracer = Tracer()
    install(tracer)
    rc = None
    try:
        rc = cli.dispatch(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "rc": rc,
                       "spans": tracer.spans}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
