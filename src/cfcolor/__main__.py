"""`python -m cfcolor ...`: the same front end as the `cfcolor` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
