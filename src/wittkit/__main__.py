"""python -m wittkit: the command line interface of wittkit.cli."""

import sys

from .cli import main

sys.exit(main())
