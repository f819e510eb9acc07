"""The 17-digit JSON writer: the float-row join path and atomic writes."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acmil import jsonio
from acmil.errors import DataFormatError

SPECIAL_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e16, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_FLOATS))


def as_numpy_scalars(value):
    """The same values, with each float a np.float64, which the writer
    handles one item at a time instead of joining the row."""
    if isinstance(value, list):
        return [as_numpy_scalars(v) for v in value]
    return np.float64(value)


@settings(deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=FLOATS),
       st.sampled_from([None, 2]))
def test_float_rows_join_to_the_same_bytes_as_the_item_path(arr, indent):
    doc = {"a": arr, "nested": [arr.tolist()]}
    generic = {"a": as_numpy_scalars(arr.tolist()), "nested": [as_numpy_scalars(arr.tolist())]}
    text = jsonio.dumps(doc, indent=indent)
    assert text == jsonio.dumps(generic, indent=indent)
    back = np.asarray(json.loads(text)["a"], dtype=np.float64).reshape(arr.shape)
    assert back.tobytes() == arr.tobytes()


def test_mixed_and_non_finite_rows():
    assert jsonio.dumps([1.0, 2, True, None], indent=None) == "[1.0,2,true,null]\n"
    assert jsonio.dumps([], indent=None) == "[]\n"
    with pytest.raises(ValueError):
        jsonio.dumps([1.0, float("inf")])


def test_dump_that_cannot_serialise_leaves_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"x": [1.0, 2.0]}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        jsonio.dump({"x": [1.0, float("nan")]}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_replace_removes_the_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    jsonio.dump({"x": 1.0}, path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(jsonio.os, "replace", refuse)
    with pytest.raises(OSError):
        jsonio.dump({"x": 2.0}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]


def test_non_utf8_file_is_a_data_format_error_naming_it(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(DataFormatError, match="bom.json"):
        jsonio.load(path)
