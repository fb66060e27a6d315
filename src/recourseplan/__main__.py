"""``python -m recourseplan``: the command line, also from a checkout that is
not installed (with ``src`` on ``PYTHONPATH``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
