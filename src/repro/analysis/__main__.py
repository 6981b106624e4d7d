"""``python -m repro.analysis`` runs the analyzer driver."""

import sys

from .driver import main

sys.exit(main())
