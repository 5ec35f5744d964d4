"""Make ``hostbench`` and the program sources importable for the benchmark's tests.

Run from the repository root: ``python3 -m pytest hostbench -q``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
