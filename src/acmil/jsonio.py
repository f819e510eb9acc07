"""JSON text with floats written to 17 significant digits.

17 digits uniquely identify any IEEE-754 double, so save -> load -> save is
byte identical.  Reading uses the standard json parser (float parsing is
exact).  Dict key order is preserved as written, which keeps output bytes
deterministic for deterministically built structures.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataFormatError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialise non-finite float")
    s = format(x, ".17g")
    # keep a float marker so the value parses back as float, not int
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


def _write(obj: Any, out: list[str], indent: int | None, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    endpad = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            out.append(pad if indent is not None else "")
            out.append(json.dumps(k))
            out.append(": " if indent is not None else ":")
            _write(v, out, indent, level + 1)
            if i != len(obj) - 1:
                out.append(",")
        out.append(endpad)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            # the common row of floats, in one join; same bytes as below
            out.append("[" + ",".join(map(format_float, obj)) + "]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            _write(v, out, indent, level + 1)
            if i != len(obj) - 1:
                out.append(",")
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, indent, level)
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj: Any, indent: int | None = 2) -> str:
    out: list[str] = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


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


def dump(obj: Any, path, indent: int | None = 2) -> None:
    """Serialise first, so a document that cannot be written leaves ``path`` as it was."""
    write_text(path, dumps(obj, indent=indent))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from exc
    return loads(text)
