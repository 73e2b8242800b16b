"""Locate the checkout and import probkit from its ``src/`` tree only."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def use_source_tree():
    """Import probkit from ROOT/src, refusing any other installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import probkit

    if not Path(probkit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"probkit imported from {probkit.__file__}, not from {src}")
    return probkit
