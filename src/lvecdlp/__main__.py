"""``python -m lvecdlp``: the ``lvecdlp`` command."""

import sys

from .cli import main

sys.exit(main())
