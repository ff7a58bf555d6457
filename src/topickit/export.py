"""CSV/JSON artifact writers shared by the three model engines.

Every numeric value is printed with 12 significant digits, so reruns
with the same seed produce byte-identical artifacts.  Every file is
written atomically (temp file + rename), so an interrupted run never
leaves a partial file behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["sig12", "atomic_write_text", "write_csv", "write_factor_csv", "write_json"]


def sig12(x) -> str:
    """Format a number with 12 significant digits."""
    return f"{float(x):.12g}"


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, with the mode
    ``open(path, "w")`` would give it (0666 less the umask)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0o022)  # the only way to read it is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # not mkstemp's 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    return "" if value is None else value if isinstance(value, str) else sig12(value)


def write_csv(path: Path, header, rows) -> None:
    """Write a CSV: strings as given (quoted where they hold a comma, quote or
    line break), numbers with ``sig12``, ``None`` as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)
    atomic_write_text(path, buf.getvalue())


def write_factor_csv(
    path: Path,
    id_column: str,
    row_ids,
    matrix: np.ndarray,
    column_names: list[str] | None = None,
) -> None:
    """Write a numeric factor matrix with a leading id column, as ``write_csv``
    would, with each row's numbers formatted by one ``%`` of sig12's format."""
    matrix = np.asarray(matrix)
    n, k = matrix.shape
    if column_names is None:
        column_names = [f"topic_{j}" for j in range(k)]
    if len(row_ids) != n or len(column_names) != k:  # zip would cut the rows short
        raise ValueError(f"{len(row_ids)} row_ids, {len(column_names)} column_names for {n} x {k}")
    # csv.writer quotes just the ids (padded as in a full row); CPython's calls write once a row.
    lines, values, pad = [], matrix.tolist(), ("",) if k else ()
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow([id_column, *column_names])
    writer.writerows((_cell(rid), *pad) for rid, _ in zip(row_ids, values))
    numbers = ",%.12g" * k + "\n"
    atomic_write_text(path, lines[0] + "".join(
        line[: -1 - len(pad)] + numbers % tuple(row) for line, row in zip(lines[1:], values)))


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
