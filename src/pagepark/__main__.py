"""`python -m pagepark`: the same command line as `python -m pagepark.cli`."""
from .cli import main

raise SystemExit(main())
