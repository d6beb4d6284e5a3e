"""``python -m vesselsim``: the same command line as the ``vesselsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
