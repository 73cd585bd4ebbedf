"""Traced stand-in for ``python -m relchern``, used by the traced cli-jobs run.

    python3 perfbench/cli_child.py SPANS_FILE <relchern arguments...>

It times ``import relchern`` (with the CLI module), installs the tracer's
wrappers, calls ``relchern.cli.main`` with the remaining arguments and
exits with its code, as ``python -m relchern`` would.  The spans and the
import time are written to ``SPANS_FILE`` once, at exit, even when ``main``
raises.
"""

import sys
import time


def run(argv):
    spans_file, args = argv[0], argv[1:]
    start = time.perf_counter_ns()
    import relchern.cli
    import_ns = time.perf_counter_ns() - start
    from tracing import Tracer  # this script's directory is on sys.path
    tracer = Tracer()
    tracer.install()
    try:
        return relchern.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file, {"import_ns": import_ns})


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
