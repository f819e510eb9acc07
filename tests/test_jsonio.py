"""The JSON writer: shortest round-trip floats, packed float64 arrays, numpy
conversion, atomic writes; the reader against ``json.loads``; truncated dataset
and checkpoint files."""

import json
import os
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acmil import jsonio
from acmil.data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from acmil.errors import DataFormatError
from acmil.model import ModelDims, init_model, load_checkpoint, save_checkpoint
from acmil.rng import Rng

FIXTURES = Path(__file__).parent / "fixtures"
SPECIAL_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e16, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]
PACKED_EXTREMES = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_FLOATS))


@settings(deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=FLOATS))
def test_float_arrays_reload_bit_exactly(arr):
    text = jsonio.dumps({"a": arr, "nested": [arr.tolist()]})
    doc = json.loads(text)
    for back in (doc["a"], doc["nested"][0]):
        assert np.asarray(back, dtype=np.float64).reshape(arr.shape).tobytes() == arr.tobytes()
    assert jsonio.dumps(doc) == text


@settings(deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=st.one_of(FLOATS, st.sampled_from(PACKED_EXTREMES))))
def test_packed_arrays_reload_bit_exactly(arr):
    text = jsonio.pack(arr)
    back = jsonio.float_array(json.loads(jsonio.dumps(text)), "a")
    assert back.dtype == np.float64 and back.shape == (arr.size,)
    assert back.flags.owndata and back.flags.writeable
    assert back.tobytes() == arr.tobytes()
    # the values in C order as little-endian float64, whatever the input's layout
    for variant in (arr.astype(">f8"), np.asfortranarray(arr), back.reshape(arr.shape)):
        assert jsonio.pack(variant) == text


@pytest.mark.parametrize("value, kind", [([0.5, 1.5], "an array"), ([[0.5]], "an array"),
                                         (1.5, "a number"), (True, "a boolean"),
                                         (None, "null"), ({}, "an object")])
def test_a_value_that_is_not_a_packed_string_is_refused_by_name(value, kind):
    with pytest.raises(DataFormatError, match=f"^a: expected a packed string, got {kind}$"):
        jsonio.float_array(value, "a")


@pytest.mark.parametrize("values", [0, 1, 2, 3, 6])
def test_a_packed_string_with_a_character_after_its_end_is_refused(values):
    # base64.b64decode ignores an "=" after a string that needs no padding (a
    # multiple of 3 values), so the loader counts the characters itself
    text = jsonio.pack(np.arange(float(values)))
    for extra in "=A":
        with pytest.raises(DataFormatError, match="^a: not packed float64"):
            jsonio.float_array(text + extra, "a")
    assert jsonio.float_array(text, "a").tobytes() == np.arange(float(values)).tobytes()


def test_mixed_and_non_finite_rows():
    assert jsonio.dumps([1.0, 2, True, None]) == "[1.0,2,true,null]\n"
    assert jsonio.dumps([]) == "[]\n"
    with pytest.raises(ValueError):
        jsonio.dumps([1.0, float("inf")])


def test_numpy_values_are_written_as_their_python_values():
    doc = {"i": np.int64(-3), "b": np.bool_(True), "f": np.float64(0.1),
           "a": np.arange(4, dtype=np.int32).reshape(2, 2), "e": np.zeros((0, 2))}
    assert jsonio.dumps(doc) == '{"i":-3,"b":true,"f":0.1,"a":[[0,1],[2,3]],"e":[]}\n'
    with pytest.raises(TypeError, match="set"):
        jsonio.dumps({"x": {1.0}})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_leaves_the_old_file(tmp_path, bad):
    path = tmp_path / "doc.json"
    jsonio.dump({"x": np.ones(3)}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        jsonio.dump({"x": np.array([1.0, bad])}, path)
    with pytest.raises(ValueError, match="NaN and Inf cannot be packed"):
        jsonio.dump({"x": jsonio.pack(np.array([1.0, bad]))}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]


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


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["long-integer", "deep"])
def test_an_overlong_integer_or_deep_nesting_is_a_data_format_error(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=f"{path}: malformed JSON"):
        jsonio.load(path)


# ------------------------------------------------------------ the reader

JSON_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 0.1, 1e16]))
STRINGS = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t", "\u00e9\u20ac", "\U0001f600", "\x00\x1f", "a\u2028b"])
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | JSON_FLOATS | STRINGS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(STRINGS, inner, max_size=6),
    max_leaves=40)
# the line a text starts on: 1 is a whole file, read by ``load``; a later one is
# decoded alone by ``loads``, as the dataset reader decodes each bag line
LINES = [1, 7, 64, 1 << 20]


def same(a, b) -> bool:
    """Equal values of the same types, keys in the same order, floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def json_outcome(text: str, line: int = 1):
    """What the reader must give for ``text`` starting on line ``line`` of a file:
    the value, or the error line without the file name."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        return (f"malformed JSON at line {line + exc.lineno - 1} column {exc.colno}: "
                f"{exc.msg}")


def load_outcome(path, line: int = 1):
    try:
        if line == 1:
            return jsonio.load(path)
        return jsonio.loads(path.read_bytes(), path, line=line)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return str(exc)[len(f"{path}: "):]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "doc.json"


@settings(deadline=None, max_examples=150)
@given(doc=DOCUMENTS, indent=st.sampled_from([1, 2, "\t"]), ascii_only=st.booleans())
def test_the_reader_equals_json_loads(scratch, doc, indent, ascii_only):
    for text in (json.dumps(doc, separators=(",", ":"), ensure_ascii=ascii_only),
                 json.dumps(doc, indent=indent, ensure_ascii=ascii_only)):
        scratch.write_text(text, encoding="utf-8")
        expected = json.loads(text)
        for line in LINES:
            assert same(load_outcome(scratch, line), expected), line


@st.composite
def damaged_texts(draw):
    """A document's text cut short, or with one character removed or put in."""
    text = json.dumps(draw(DOCUMENTS), indent=draw(st.sampled_from([None, 1])))
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["cut", "remove", "insert"]))
    if how == "cut":
        return text[:at]
    if how == "remove":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(list(',:[]{}"\\ \n-.e0tx'))) + text[at:]


@settings(deadline=None, max_examples=300)
@given(text=damaged_texts())
def test_a_damaged_file_fails_where_json_loads_fails(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    for line in LINES:
        assert same(load_outcome(scratch, line), json_outcome(text, line=line)), line


@pytest.mark.parametrize("text", [
    "", " \n ", "0", "-0.0", "12345678901234567890", "1.5e-300", "5e-324", "1e308", "true",
    "null", '"\\u00e9\u20ac"', "[]", "[1, [2, {}], {\"a\": [3.25]}]", "{}",
    "[1] 2", "{} {}", '{"a": 1}x', "1 2", "[1,]", '{"a": 1,}', "\ufeff{}", "1.", "1.5e",
    "-", "[-Infinity, NaN]", "tru", '{"a" 1}', '{"a": [1, 2}',
], ids=repr)
@pytest.mark.parametrize("line", LINES)
def test_top_level_values_and_faults_read_as_json_loads_reads_them(scratch, text, line):
    scratch.write_text(text, encoding="utf-8")
    assert same(load_outcome(scratch, line), json_outcome(text, line=line))


@pytest.mark.parametrize("text", [
    '{"a": [1, 2],\n "b": [3,' + " \n" * 40 + "]}",
    '[{"a": 1,' + "\t\n" * 40 + "}]",
    '[1,' + "\n " * 40 + "]",
], ids=["array", "object", "top-level"])
@pytest.mark.parametrize("line", LINES)
def test_a_fault_placed_at_the_last_comma_keeps_its_line_and_column(tmp_path, text, line):
    # from Python 3.13 json.loads places a trailing comma at the comma, lines
    # before the bracket that ends the text; the reader keeps that place
    def loads(s):
        comma = re.search(r",[ \t\n\r]*[\]}]", s)
        if comma:
            raise json.JSONDecodeError("Illegal trailing comma", s, comma.start())
        return json.loads(s)

    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as expected:
        loads(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "json", SimpleNamespace(loads=loads,
                                                   JSONDecodeError=json.JSONDecodeError))
        assert load_outcome(path, line) == (
            f"malformed JSON at line {line + expected.value.lineno - 1} "
            f"column {expected.value.colno}: Illegal trailing comma")


def test_bad_utf8_is_placed_by_its_byte_in_the_file(tmp_path):
    path = tmp_path / "doc.json"
    head = json.dumps({"text": "\u00e9" * 100}, ensure_ascii=False).encode()[:-2]
    path.write_bytes(head + b"\xff" + b'"}')
    with pytest.raises(DataFormatError, match=f"byte {len(head)}: invalid start byte"):
        jsonio.load(path)
    with pytest.raises(DataFormatError, match=f"byte {len(head) + 1000}: invalid start byte"):
        jsonio.loads(path.read_bytes(), path, byte=1000)
    path.write_bytes(head + b"\xc3")  # a two-byte character cut by the end of the file
    with pytest.raises(DataFormatError, match=f"byte {len(head)}: unexpected end of data"):
        jsonio.load(path)


# ------------------------------------------------------------ truncated files


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("whole")
    synth = SyntheticConfig(feature_dim=4, patterns_per_class=2, background_patterns=2,
                            bags_per_class=3, instances_min=5, instances_max=8)
    dataset = directory / "data.json"
    save_dataset(generate_synthetic(synth), dataset)
    checkpoint = directory / "checkpoint.json"
    model = init_model(ModelDims(4, 5, 3, 2, 2), Rng.stream(0, 0), seed=0)
    save_checkpoint(model, checkpoint, config={"epochs": 1})
    return {"dataset": (load_dataset, dataset.read_bytes()),
            "dataset_fixture": (load_dataset, (FIXTURES / "dataset_v3.json").read_bytes()),
            "checkpoint": (load_checkpoint, checkpoint.read_bytes()),
            "checkpoint_fixture": (load_checkpoint,
                                   (FIXTURES / "checkpoint_v2.json").read_bytes())}


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(["dataset", "dataset_fixture", "checkpoint", "checkpoint_fixture"]),
       data=st.data())
def test_a_file_cut_before_its_closing_brace_is_a_data_format_error(
        small_files, tmp_path_factory, kind, data):
    # a dataset cut at a line boundary falls short of its bag count
    loader, whole = small_files[kind]
    offset = data.draw(st.integers(0, whole.rindex(b"}")), label="offset")
    path = tmp_path_factory.getbasetemp() / "cut.json"
    path.write_bytes(whole[:offset])
    with pytest.raises(DataFormatError) as info:
        loader(path)
    assert str(info.value).count(str(path)) == 1
