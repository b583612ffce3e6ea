"""The process entry of ``python -m busfactor`` and of the ``busfactor`` script."""
import gc
import sys


def run() -> int:
    """Run one command in this process and return its exit code.

    The cyclic collector goes off before the first submodule is imported and
    stays off to exit: the records a run builds hold no cycles. At the end
    ``gc.freeze`` moves every object left into the permanent generation, so
    the full collection at interpreter exit does not scan them again. Code
    that calls ``cli.main`` in its own process keeps its collector as it was.
    """
    gc.disable()
    from .cli import main

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
