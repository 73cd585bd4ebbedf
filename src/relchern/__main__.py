"""The one process entry: ``python -m relchern`` and the ``relchern``
console script both call :func:`run`, which ends each process with the
cycle collector frozen.
"""

import gc
import sys

from .cli import main


def run():
    """Run the CLI on ``sys.argv[1:]`` and return its exit code.

    Once the job is done, :func:`gc.freeze` moves every tracked object to
    the permanent generation, which no later collection visits, those at
    interpreter exit included; the ``finally`` also covers argparse's
    ``SystemExit(2)``.  That is safe because interpreter finalization still
    runs ``atexit`` and flushes stdout and stderr, the closed-pipe handling
    of ``cli._emit`` is untouched, and the only cycles a CLI run leaves,
    argparse's parser and the closures of the indented JSON encoder, hold
    no finalizer; the package itself builds no reference cycle.
    :func:`relchern.cli.main` never freezes: tests and batch callers run it
    in process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
