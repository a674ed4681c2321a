"""`python -m kgstab`: the command-line front end of `kgstab.cli`."""

import sys

from .cli import main

sys.exit(main())
