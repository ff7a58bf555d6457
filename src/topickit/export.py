"""CSV/JSON artifact writers shared by the three model engines.

Every numeric value is printed with 12 significant digits, so reruns
with the same seed produce byte-identical artifacts.  Every file is
written atomically (temp file + rename), so an interrupted run never
leaves a partial file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["sig12", "atomic_write_text", "write_csv", "write_factor_csv", "write_json"]


def sig12(x) -> str:
    """Format a number with 12 significant digits."""
    return f"{float(x):.12g}"


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, rows) -> None:
    """Write a CSV: strings as given, numbers with ``sig12``, ``None`` as an empty cell."""
    def cell(value) -> str:
        return "" if value is None else value if isinstance(value, str) else sig12(value)

    lines = [",".join(header), *(",".join(map(cell, row)) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_factor_csv(
    path: Path,
    id_column: str,
    row_ids,
    matrix: np.ndarray,
    column_names: list[str] | None = None,
) -> None:
    """Write a factor matrix with a leading id column."""
    matrix = np.asarray(matrix)
    if column_names is None:
        column_names = [f"topic_{j}" for j in range(matrix.shape[1])]
    rows = ([rid, *row] for rid, row in zip(row_ids, matrix.tolist()))
    write_csv(path, [id_column, *column_names], rows)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(sig12(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(
        path, json.dumps(_round_floats(payload), indent=2, sort_keys=False) + "\n"
    )
