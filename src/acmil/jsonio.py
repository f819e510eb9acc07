"""JSON and CSV text, written atomically.

Every JSON document is one compact line from the standard-library encoder.
Floats are written as Python's ``repr``, the shortest text that reads back
to the same double, so reloads are bit-exact and save -> load -> save is
byte-identical.  NaN and Inf are refused.  Numpy arrays and scalars are
written as their ``tolist()``.  Dict key order is kept as built, which keeps
output bytes deterministic for deterministically built structures.

``load`` reads a file in 1 MiB chunks and gives what ``json.loads`` gives
for its text, down to the float bits and the line and column of an error,
while it holds about a chunk plus the value being decoded, never the whole
file.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
import re
import stat
from itertools import chain
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


def float_array(value) -> np.ndarray | None:
    """``value`` as a float64 array if it is a rectangular list of JSON numbers, else None.
    ``np.array`` alone would read ``true`` as 1.0 and ``"1.5"`` as 1.5."""
    try:
        a = np.array(value)
    except ValueError:  # ragged
        return None
    if a.ndim == 0 or a.dtype.kind not in "fiu":
        return None
    values = value
    for _ in range(a.ndim - 1):
        values = chain.from_iterable(values)
    # np.array reads a JSON boolean as 1 or 0; the type of every value is
    # checked, so the cost does not depend on how many values are 0 or 1
    if bool in set(map(type, values)):
        return None
    return a.astype(np.float64, copy=False)


_CHUNK = 1 << 20  # bytes read at a time
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)
_SCALAR = re.compile(r"[\w.+-]*")  # a number or literal, or the junk in place of one


class _Window:
    """A file's text, read a chunk at a time: ``buf[pos:]`` is unread and
    ``buf`` starts at character ``base`` of the file."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.utf8 = codecs.getincrementaldecoder("utf-8")()
        st = os.fstat(fh.fileno())
        self.file_size = st.st_size if stat.S_ISREG(st.st_mode) else None  # None: a pipe
        self.bytes_in = 0  # bytes given to the decoder
        self.buf, self.pos, self.base = "", 0, 0
        self.lines, self.line_start = 0, 0  # newlines before ``base``; offset after the last
        self.size = _CHUNK
        self.comma = None  # the last comma of a streamed level until the next item starts

    def more(self) -> bool:
        """Drop the read text and append at least one character; False at the end of the file."""
        text = ""
        while not text:
            want = self.size
            if self.file_size is not None:  # ask no more than is left: the reader allocates it
                want = min(want, max(self.file_size - self.bytes_in, 0) + 1)
            data = self.fh.read(want)
            pending = len(self.utf8.getstate()[0])
            try:
                text = self.utf8.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{self.path}: not UTF-8 text (byte "
                                      f"{self.bytes_in - pending + exc.start}: {exc.reason})"
                                      ) from exc
            self.bytes_in += len(data)
            if not data:
                return False
        del data
        if isinstance(self.comma, int):  # about to be dropped: keep its line and column
            self.comma = self.place(self.comma - self.base)
        newline = self.buf.rfind("\n", 0, self.pos)  # the fast test: most files are one line
        if newline >= 0:
            self.lines += self.buf.count("\n", 0, newline + 1)
            self.line_start = self.base + newline + 1
        self.base += self.pos
        rest, self.buf = self.buf[self.pos:], ""
        self.buf, self.pos = rest + text, 0
        return True

    def peek(self) -> str:
        """The next character after whitespace, not consumed; '' at the end of the file."""
        self.pos = _WHITESPACE.match(self.buf, self.pos).end()
        while self.pos == len(self.buf) and self.more():
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
        return self.buf[self.pos : self.pos + 1]

    def holds_value(self) -> bool:
        """Whether ``buf`` holds the end of the value at the cursor, so that decoding it
        needs no more text.  Only brackets of the value's own kind are counted, outside
        strings; a value whose other brackets do not match fails to decode at or before
        the end found."""
        buf, at = self.buf, self.pos
        opener = buf[at : at + 1]
        if opener == '"':
            return _STRING.match(buf, at) is not None
        if opener not in ("{", "["):
            return _SCALAR.match(buf, at).end() < len(buf)  # "1" or "1.5e" may go on
        closer = "}" if opener == "{" else "]"
        depth, quote = 0, -1
        while True:
            if quote < at:
                quote = buf.find('"', at)
                if quote < 0:
                    quote = len(buf)
            end = buf.find(closer, at, quote)
            if end >= 0:
                depth += buf.count(opener, at, end) - 1
                if depth == 0:
                    return True
                at = end + 1
            elif quote < len(buf):
                depth += buf.count(opener, at, quote)
                string = _STRING.match(buf, quote)
                if string is None:
                    return False
                at = string.end()
            else:
                return False

    def value(self, decoder: json.JSONDecoder) -> Any:
        """The value at the cursor, decoded once.  The buffer is first read on until it
        holds the value's end or the file's; each read on doubles the read size, so a
        value of n characters is scanned about twice, not n / chunk times."""
        while not self.holds_value() and self.more():
            self.size *= 2
        self.size = _CHUNK
        try:
            value, self.pos = decoder.raw_decode(self.buf, self.pos)
        except json.JSONDecodeError as exc:
            raise self.error(exc.msg, exc.pos) from exc
        return value

    def place(self, pos: int) -> tuple[int, int]:
        """The line and column of ``buf[pos]`` in the file."""
        line = self.lines + self.buf.count("\n", 0, pos) + 1
        newline = self.buf.rfind("\n", 0, pos)
        return line, pos - newline if newline >= 0 else self.base + pos - self.line_start + 1

    def error(self, msg: str, at: int | tuple[int, int]) -> DataFormatError:
        """``msg`` at ``buf[at]``, or at the line and column ``at``."""
        line, column = at if isinstance(at, tuple) else self.place(at)
        return DataFormatError(f"{self.path}: malformed JSON at line {line} column {column}: {msg}")

    def fault(self, head: str) -> DataFormatError:
        """The error ``json.loads`` reports where the text goes wrong at the cursor.
        ``head`` is text that leaves the parser in the state the file leaves it in here,
        ending in a comma if the last comma counts; the running interpreter reads it and
        the text at the cursor, so its own message and position are kept."""
        tail = self.buf[self.pos : self.pos + 16]
        try:
            json.loads(head + tail)
        except json.JSONDecodeError as exc:
            at = exc.pos - len(head)
            if at < 0 and head.endswith(","):
                comma = self.comma
                return self.error(exc.msg, comma if isinstance(comma, tuple) else comma - self.base)
            return self.error(exc.msg, self.pos + max(at, 0))
        raise AssertionError(f"{head + tail!r} is valid JSON")


def _read(window: _Window, decoder: json.JSONDecoder, depth: int = 0) -> Any:
    """The value at the cursor.  An object or array at depth 0 or 1 is read one member
    at a time; a deeper one is one value."""
    opener = window.peek()
    if depth == 2 or opener not in ("{", "["):
        return window.value(decoder)
    closer = "}" if opener == "{" else "]"
    after_item = '{"":0' if opener == "{" else "[0"  # json.loads's state after a member
    window.pos += 1
    items = []
    following = window.peek()
    if following != closer:
        while True:  # ``following`` starts the next item, after the opener or a comma
            if opener == "{" and following != '"' or opener == "[" and following == "]":
                raise window.fault(after_item + "," if items else opener)
            window.comma = None
            if opener == "{":
                key = window.value(decoder)
                if window.peek() != ":":
                    raise window.fault('{""')
                window.pos += 1
                items.append((key, _read(window, decoder, depth + 1)))
            else:
                items.append(_read(window, decoder, depth + 1))
            following = window.peek()
            if following == closer:
                break
            if following != ",":
                raise window.fault(after_item)
            window.comma = window.base + window.pos
            window.pos += 1
            following = window.peek()
    window.pos += 1
    if opener == "[":
        return items
    obj = dict(items)
    return decoder.object_hook(obj) if decoder.object_hook else obj


def load(path, object_hook=None) -> Any:
    """The document in ``path``, equal to ``json.loads`` of its text, read in chunks of
    ``_CHUNK`` bytes.  The top-level value and each member that is an object or array
    are taken one member at a time, and every value is decoded once, when the buffer
    holds all of it, so a load holds about a chunk plus the value being decoded, never
    the whole file.  ``object_hook`` sees every object once, innermost first and the
    top-level one last.  A DataFormatError names the file, with the line and column of
    malformed JSON and the byte of text that is not UTF-8."""
    decoder = json.JSONDecoder(object_hook=object_hook)
    with open(path, "rb") as fh:
        window = _Window(fh, path)
        try:
            window.more()
            if window.buf.startswith("\ufeff"):
                raise window.fault("")
            doc = _read(window, decoder)
            if window.peek():
                raise window.fault("0 ")
        except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits; deep nesting
            raise DataFormatError(f"{path}: malformed JSON: {exc}") from exc
    return doc
