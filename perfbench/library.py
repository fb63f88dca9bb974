"""Locating the library under test.

The benchmark always measures the sources in ``src/`` of the checkout it
sits in, never an installed copy, and refuses to run without them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def require_library():
    """Put ``src/`` first on the import path and import bwalloc from it."""
    if not (SRC / "bwalloc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bwalloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bwalloc

    if not Path(bwalloc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: bwalloc was imported from {bwalloc.__file__}, not {SRC}")
    return bwalloc
