"""JSON and CSV text, written atomically.

Every JSON document is one compact line from the standard-library encoder.
Floats are written as Python's ``repr``, the shortest text that reads back
to the same double, so reloads are bit-exact and save -> load -> save is
byte-identical.  NaN and Inf are refused.  Numpy arrays and scalars are
written as their ``tolist()``.  Dict key order is kept as built, which keeps
output bytes deterministic for deterministically built structures.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataFormatError


def _plain(obj: Any) -> Any:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False, default=_plain) + "\n"


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_text(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it into place.

    A reader sees the old file or the whole new one, never a partial write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump(obj: Any, path) -> None:
    """Serialise first, so a document that cannot be written leaves ``path`` as it was."""
    write_text(path, dumps(obj))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load(path) -> Any:
    """The document in ``path``; a DataFormatError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from exc
    try:
        return loads(text)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc.__cause__
