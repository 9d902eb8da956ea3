"""``python -m stmod``: the same command as the ``stmod`` console script."""

import sys

from .cli import main

sys.exit(main())
