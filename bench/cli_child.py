"""Traced stand-in for ``python -m commdet``, used by the traced cli run.

Times the import of ``commdet.cli``, wraps the layer entry points, runs
``commdet.cli.main`` on the given arguments and writes the span
aggregates as JSON to the file descriptor named by
``COMMDET_BENCH_TRACE_FD``.  Exit code, stdout and stderr match the
plain module run, including the traceback of an uncaught exception.
"""

import json
import os
import sys
import time


def run():
    start = time.perf_counter()
    import commdet
    import commdet.cli
    import_s = time.perf_counter() - start

    from spans import Tracer

    tracer = Tracer()
    tracer.install(commdet)
    try:
        code = commdet.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        record = dict(tracer.as_dict(), import_s=import_s)
        with os.fdopen(int(os.environ["COMMDET_BENCH_TRACE_FD"]), "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
