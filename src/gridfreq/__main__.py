"""``python -m gridfreq``: the same command line as the ``gridfreq`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
