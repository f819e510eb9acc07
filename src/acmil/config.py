"""One dict codec for the config dataclasses, driven by their fields.

``to_dict`` writes every field in declaration order, tuples as lists and
nested configs as dicts.  ``from_dict`` reads a JSON object back: missing
keys take the field defaults, and each given value is checked against its
field's type annotation.  Unknown keys, a bool where a number is expected,
non-finite floats and any other wrong type raise ConfigError naming the
dotted path of the value (``train.stkim.count``).  An int given for a float
field becomes a float and a list becomes a tuple.  The constructor's own
range checks run last; their messages start with the field name, which
``from_dict`` extends to the dotted path (``train.epochs must be >= 1``).
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import fields

from .errors import ConfigError

_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, (list, tuple)):
        return "an array"
    return "an object" if isinstance(value, dict) else type(value).__name__


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def check_keys(doc, allowed, path: str) -> dict:
    """``doc`` itself, after checking that it is an object of allowed keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {json_type(doc)}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(
                f"{_join(path, key)}: unknown key; expected one of {', '.join(allowed)}"
            )
    return doc


def decode(value, tp, path: str):
    """``value`` checked against the type annotation ``tp`` and converted."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(value, tp, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected an array, got {json_type(value)}")
        item = typing.get_args(tp)[0]
        return tuple(decode(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, Config):
        return tp.from_dict(value, path)
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, tp):
        raise ConfigError(f"{path}: expected {_EXPECTED[tp]}, got {json_type(value)}")
    if tp is float and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return value


def _encode(value):
    if isinstance(value, Config):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


class Config:
    """Base of the config dataclasses: their shared to_dict / from_dict."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc, path: str | None = None):
        """An instance from a JSON object; errors name ``path`` (default: the class name)."""
        path = cls.__name__ if path is None else path
        check_keys(doc, [f.name for f in fields(cls)], path)
        hints = typing.get_type_hints(cls)
        kwargs = {k: decode(v, hints[k], _join(path, k)) for k, v in doc.items()}
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            raise ConfigError(_join(path, exc)) from exc
