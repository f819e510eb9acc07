"""JSON and CSV text, written atomically.

Every JSON document is one compact line from the standard-library encoder
(a dataset file is such lines, one per bag after a header line).
Floats are written as Python's ``repr``, the shortest text that reads back
to the same double, so reloads are bit-exact and save -> load -> save is
byte-identical.  NaN and Inf are refused.  Numpy arrays and scalars are
written as their ``tolist()``.  Dict key order is kept as built, which keeps
output bytes deterministic for deterministically built structures.

The large float arrays (dataset features, checkpoint parameters) are written
with ``pack`` instead: one string, the padded base64 of the values as
little-endian float64 in C order, which ``float_array`` decodes bit-exactly
without parsing a float from text.  A packed string is the only form of a
float array that the loaders read.

``load`` reads a file whole and gives what ``json.loads`` gives for its
text.  Only dataset files grow large; they are JSON Lines, which
``data.load_dataset`` reads a line at a time with ``loads``.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import os
from collections.abc import Iterable
from pathlib import Path
from typing import Any

import numpy as np

from .config import json_type
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


def write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text``, or each string it yields, to a temporary file beside ``path``,
    then move it into place.

    A reader sees the old file or the whole new one, never a partial write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump(obj: Any, path) -> None:
    """Serialise first, so a document that cannot be written leaves ``path`` as it was."""
    write_text(path, dumps(obj))


def pack(a) -> str:
    """The values of ``a`` as little-endian float64 in C order, in padded base64;
    NaN and Inf are refused, as ``dumps`` refuses them."""
    a = np.ascontiguousarray(a, "<f8")
    if not np.all(np.isfinite(a)):
        raise ValueError("NaN and Inf cannot be packed")
    return base64.b64encode(a).decode("ascii")


def float_array(value, name: str) -> np.ndarray:
    """A ``pack`` string as a flat float64 array; anything else, or a string that is not
    packed float64, is a DataFormatError naming ``name``."""
    if not isinstance(value, str):
        raise DataFormatError(f"{name}: expected a packed string, got {json_type(value)}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # a character outside the alphabet, bad padding
        raise DataFormatError(f"{name}: not packed float64 ({exc})") from exc
    if len(value) != 4 * -(-len(raw) // 3):  # b64decode ignores excess padding
        raise DataFormatError(f"{name}: not packed float64 ({len(value)} characters "
                              f"for {len(raw)} bytes)")
    if len(raw) % 8:
        raise DataFormatError(f"{name}: {len(raw)} packed bytes, not a multiple of 8")
    return np.frombuffer(raw, "<f8").astype(np.float64)


def loads(data: bytes, path, line: int = 1, byte: int = 0) -> Any:
    """``json.loads`` of ``data``: the bytes of ``path`` from byte ``byte`` on, which
    start on line ``line`` of the file.  A DataFormatError names the file, with the line
    and column of malformed JSON and the byte of text that is not UTF-8."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {byte + exc.start}: "
                              f"{exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: malformed JSON at line {line + exc.lineno - 1} "
                              f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits; deep nesting
        raise DataFormatError(f"{path}: malformed JSON: {exc}") from exc


def load(path) -> Any:
    """The document in ``path``, read whole; errors as ``loads``."""
    with open(path, "rb") as fh:
        data = fh.read()
    return loads(data, path)
