import gc
import sys

from .cli import main


def entry() -> int:
    """The `cantorspec` process: `python -m cantorspec` and the console script.

    Freezes the heap that the imports built before running `main`, so every
    later collection, the interpreter's last ones at exit among them, skips
    it.  What the command itself allocates is collected as usual.  Callers
    of `main(argv)` in their own process do not come through here.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
