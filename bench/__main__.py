"""``python -m bench``: puts ``src/`` on the path (so no ``PYTHONPATH``
is needed) and hands over to :mod:`bench.cli`."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from bench.cli import main  # noqa: E402 -- needs the path set above

if __name__ == "__main__":
    sys.exit(main())
