"""`python3 -m gradedpi` runs the command line, like the `gradedpi` script."""

from .cli import main

raise SystemExit(main())
