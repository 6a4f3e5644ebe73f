"""``python -m pathkge <verb>``: the command-line pipeline."""

import sys

from pathkge.cli import main

sys.exit(main())
