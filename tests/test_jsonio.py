"""The JSON writer: shortest round-trip floats, numpy conversion, atomic writes,
and truncated dataset and checkpoint files."""

import json
import os

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

SPECIAL_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e16, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]
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
    return {load_dataset: dataset.read_bytes(), load_checkpoint: checkpoint.read_bytes()}


@settings(deadline=None, max_examples=300)
@given(loader=st.sampled_from([load_dataset, load_checkpoint]), data=st.data())
def test_a_file_cut_before_its_closing_brace_is_a_data_format_error(
        small_files, tmp_path_factory, loader, data):
    whole = small_files[loader]
    offset = data.draw(st.integers(0, whole.rindex(b"}")), label="offset")
    path = tmp_path_factory.getbasetemp() / "cut.json"
    path.write_bytes(whole[:offset])
    with pytest.raises(DataFormatError) as info:
        loader(path)
    assert str(info.value).count(str(path)) == 1
