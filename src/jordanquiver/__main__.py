"""``python -m jordanquiver``: the same CLI as the ``jordanquiver`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
