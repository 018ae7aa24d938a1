"""Imports for the benchmark's self-tests: the package from src/, the benchmark from here.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
