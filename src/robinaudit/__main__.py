"""``python -m robinaudit``: the same command line as the ``robinaudit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
