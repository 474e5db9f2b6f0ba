"""``python -m patchlm``: the same entry point as the ``patchlm`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
