"""``python -m catlin``: the command-line front end (see :mod:`catlin.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
