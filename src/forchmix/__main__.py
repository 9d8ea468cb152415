"""python -m forchmix: the convergence-study command line (see forchmix.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
