"""`python -m diffalg <command> <file> ...`: the same as the `diffalg` script."""

import sys

from .cli import main

sys.exit(main())
