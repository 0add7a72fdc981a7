"""``python -m owlink``: the ``owlink`` command line."""

from .cli import main

raise SystemExit(main())
