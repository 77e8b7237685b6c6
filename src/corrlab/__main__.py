"""``python -m corrlab``: the same entry point as the ``corrlab`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
