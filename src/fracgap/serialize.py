"""Deterministic text serialization for reports and tables.

Floats are written in the shortest form that parses back to the same
double (Python's float repr, as the stdlib json module emits it), so equal
inputs yield byte-identical files. Files are written to a sibling temp path
and moved into place, so readers never observe partial output.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

__all__ = ["dumps_json", "write_atomic", "csv_text"]


def _numpy_item(obj):
    """json.dumps hook: numpy scalars and similar duck-typed numbers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, default=_numpy_item) + "\n"


def csv_text(header: list[str], rows) -> str:
    """CSV with round-trip floats; ints stay integral, bools read true/false."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_cell, row)))
    return "\n".join(lines) + "\n"


def _cell(cell) -> str:
    """A CSV cell: a number as json.dumps writes it, anything else as str."""
    if isinstance(cell, float):
        if math.isfinite(cell):
            return float.__repr__(cell)
        return "NaN" if cell != cell else ("Infinity" if cell > 0 else "-Infinity")
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return int.__repr__(cell)
    return str(cell)


def write_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
