import base64
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from acmil import jsonio
from acmil.bags import Bag
from acmil.data import (
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from acmil.errors import ConfigError, DataFormatError


def small_config(**overrides):
    base = dict(
        num_classes=2,
        feature_dim=6,
        patterns_per_class=2,
        background_patterns=2,
        bags_per_class=10,
        instances_min=10,
        instances_max=20,
        seed=0,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


def test_generation_counts():
    ds = generate_synthetic(small_config())
    assert len(ds.bags) == 20
    for label in (0, 1):
        assert sum(1 for b in ds.bags if b.label == label) == 10


def test_exact_positive_fraction_when_pinned():
    cfg = small_config(
        positive_fraction_min=0.3,
        positive_fraction_max=0.3,
        instances_min=100,
        instances_max=100,
    )
    ds = generate_synthetic(cfg)
    for b in ds.bags:
        if b.label == 1:
            assert int((b.instance_labels >= 1).sum()) == 30


def test_negative_bags_have_no_pattern_instances():
    ds = generate_synthetic(small_config(bags_per_class=15))
    for b in ds.bags:
        if b.label == 0:
            assert int((b.instance_labels >= 1).sum()) == 0
        else:
            assert int((b.instance_labels >= 1).sum()) >= 1


def test_generation_is_deterministic(tmp_path):
    cfg = small_config(seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(generate_synthetic(cfg), p1)
    save_dataset(generate_synthetic(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_linear_probe_separability():
    # oracle: spherical gaussians this far apart are near-perfectly separable
    # along the mean-difference direction
    cfg = small_config(cluster_std=1.0, cluster_separation=6.0, bags_per_class=5)
    ds = generate_synthetic(cfg)
    feats, is_pattern = [], []
    for b in ds.bags:
        feats.append(b.instances)
        is_pattern.append(b.instance_labels >= 1)
    x = np.vstack(feats)
    y = np.concatenate(is_pattern)
    assert y.any() and (~y).any()
    direction = x[y].mean(axis=0) - x[~y].mean(axis=0)
    scores = x @ direction
    pos, neg = scores[y], scores[~y]
    wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
    auc = wins / (len(pos) * len(neg))
    assert auc >= 0.95


def test_text_round_trip_is_byte_identical(tmp_path):
    ds = split_dataset(generate_synthetic(small_config()), (0.6, 0.2, 0.2), 3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(ds, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_text_round_trip_preserves_values_exactly(tmp_path):
    ds = generate_synthetic(small_config(seed=9))
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    for a, b in zip(ds.bags, loaded.bags):
        assert a.id == b.id and a.label == b.label
        assert np.array_equal(a.instances, b.instances)
        assert np.array_equal(a.instance_labels, b.instance_labels)


@pytest.mark.parametrize("instance_labels", [True, False])
def test_reload_is_bit_equal_and_resaves_byte_identically(tmp_path, instance_labels):
    ds = split_dataset(generate_synthetic(small_config(seed=4)), (0.6, 0.2, 0.2), 4)
    if not instance_labels:
        for b in ds.bags:
            b.instance_labels = None
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(ds, p1)
    loaded = load_dataset(p1)
    assert loaded.split_of == ds.split_of and loaded.provenance == ds.provenance
    for a, b in zip(ds.bags, loaded.bags, strict=True):
        assert (a.id, a.label) == (b.id, b.label)
        assert b.instances.dtype == np.float64 and b.instances.shape == a.instances.shape
        assert b.instances.tobytes() == a.instances.tobytes()
        if instance_labels:
            assert b.instance_labels.dtype == np.int64
            assert b.instance_labels.tobytes() == a.instance_labels.tobytes()
        else:
            assert b.instance_labels is None
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loading_peaks_below_twice_the_file_plus_the_arrays(tmp_path):
    # the bags must not be held as Python lists, at 32 bytes per value
    path = tmp_path / "ds.json"
    save_dataset(generate_synthetic(small_config(feature_dim=16, instances_min=40,
                                                 instances_max=60)), path)
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(b.instances.nbytes + b.instance_labels.nbytes for b in ds.bags)
    assert peak < 2 * path.stat().st_size + arrays


def test_loading_a_large_file_peaks_below_its_size(tmp_path):
    # the file is read a line, one bag, at a time: neither its bytes nor its text
    # are held whole, so only the arrays (3 of every 4 bytes of packed text) accumulate
    rng = np.random.default_rng(0)
    bags = [Bag(id=f"b{i}", instances=rng.normal(size=(150, 32)), label=i % 2,
                instance_labels=np.zeros(150, dtype=np.int64)) for i in range(160)]
    path = tmp_path / "large.json"
    save_dataset(Dataset(feature_dim=32, num_classes=2, bags=bags), path)
    assert path.stat().st_size > 8_000_000
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(a.instances.tobytes() == b.instances.tobytes() for a, b in zip(ds.bags, bags))
    assert peak < path.stat().st_size


def one_bag_file(path, instances) -> Path:
    """A dataset of one bag, ``bag-x``, of 3 features, whose instances are ``instances``."""
    doc = {"format": "acmil-dataset", "format_version": 3, "feature_dim": 3, "num_classes": 2,
           "provenance": {}, "warnings": [], "bags": 1}
    rec = {"id": "bag-x", "label": 0, "instances": instances}
    path.write_text(json.dumps(doc) + "\n" + json.dumps(rec) + "\n")
    return path


def test_load_rejects_wrong_row_length(tmp_path):
    # a row one value short: 5 packed values are not rows of 3
    path = one_bag_file(tmp_path / "bad.json", jsonio.pack([1.0, 2.0, 3.0, 4.0, 5.0]))
    with pytest.raises(DataFormatError, match=f"^{path}: bag 'bag-x' holds 5 packed values, "
                                              "not rows of feature_dim=3$"):
        load_dataset(path)


def test_load_rejects_non_finite_features(tmp_path):
    raw = base64.b64encode(np.array([1.0, np.nan, 0.5], "<f8").tobytes()).decode()
    path = one_bag_file(tmp_path / "nan.json", raw)
    with pytest.raises(DataFormatError, match=f"^{path}: bag 'bag-x': non-finite feature"):
        load_dataset(path)


def test_load_reports_line_and_column_for_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "acmil-dataset",\n  "oops"\n}')
    with pytest.raises(DataFormatError, match=f"^{path}: malformed JSON at line 1 column 28"):
        load_dataset(path)


FIXTURES = Path(__file__).parent / "fixtures"
DATASET_V1, DATASET_V2 = FIXTURES / "dataset_v1.json", FIXTURES / "dataset_v2.json"
DATASET_V3 = FIXTURES / "dataset_v3.json"


def small_dataset_lines(tmp_path) -> list[bytes]:
    ds = split_dataset(generate_synthetic(small_config(bags_per_class=3)), (0.6, 0.2, 0.2), 1)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    return path.read_bytes().splitlines(keepends=True)


def test_a_dataset_is_a_header_line_and_one_bag_per_line(tmp_path):
    lines = small_dataset_lines(tmp_path)
    header = json.loads(lines[0])
    assert list(header) == ["format", "format_version", "feature_dim", "num_classes",
                            "provenance", "warnings", "bags"]
    assert header["format_version"] == 3 and header["bags"] == len(lines) - 1 == 6
    assert [list(json.loads(line)) for line in lines[1:]] == [
        ["id", "label", "split", "instance_labels", "instances"]] * 6
    proc = subprocess.run([sys.executable, "-m", "json.tool", "--json-lines",
                           str(tmp_path / "ds.json")], capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.count(b'"format_version": 3') == 1


def test_packed_instances_are_little_endian_float64_rows_in_base64(tmp_path):
    lines = small_dataset_lines(tmp_path)
    ds = load_dataset(tmp_path / "ds.json")
    for bag, line in zip(ds.bags, lines[1:], strict=True):
        raw = base64.b64decode(json.loads(line)["instances"], validate=True)
        assert raw == bag.instances.astype("<f8").tobytes()


def fixture_doc(path) -> dict:
    """A dataset fixture as ``json.loads`` reads it, its bag lines gathered into ``bags``."""
    header, *bags = map(json.loads, path.read_text().splitlines())
    return header if header["format_version"] == 1 else {**header, "bags": bags}


def check_fixture(ds, doc):
    """``ds`` holds what ``json.loads`` reads from a fixture's ``doc``, bit for bit."""
    assert (ds.feature_dim, ds.num_classes) == (doc["feature_dim"], doc["num_classes"])
    assert ds.provenance == doc["provenance"] and ds.warnings == doc["warnings"] != []
    assert ds.split_of == {rec["id"]: rec["split"] for rec in doc["bags"]}
    assert {"instance_labels" in rec for rec in doc["bags"]} == {True, False}
    for bag, rec in zip(ds.bags, doc["bags"], strict=True):
        assert (bag.id, bag.label) == (rec["id"], rec["label"])
        assert bag.instances.dtype == np.float64
        assert bag.instances.tobytes() == np.array(rec["instances"], np.float64).tobytes()
        if "instance_labels" in rec:
            labels = np.array(rec["instance_labels"], np.int64)
            assert bag.instance_labels.dtype == np.int64
            assert bag.instance_labels.tobytes() == labels.tobytes()
        else:
            assert bag.instance_labels is None


def test_the_packed_fixture_holds_the_version_1_numbers_and_resaves_byte_identically(tmp_path):
    # dataset_v3.json is dataset_v1.json re-saved by the last release that read version 1
    v1, v2 = fixture_doc(DATASET_V1), fixture_doc(DATASET_V2)
    assert (v1["format_version"], v2["format_version"]) == (1, 2) and v2["bags"] == v1["bags"]
    ds = load_dataset(DATASET_V3)
    check_fixture(ds, v1)
    out = tmp_path / "resaved.json"
    save_dataset(ds, out)
    assert out.read_bytes() == DATASET_V3.read_bytes()


def check_refused(fixture, version):
    with pytest.raises(DataFormatError) as info:
        load_dataset(fixture)
    assert str(info.value) == (f"{fixture}: unsupported dataset version {version}; "
                               "this release reads version 3")


def test_a_version_1_file_is_refused_with_its_version():
    check_refused(DATASET_V1, 1)


def test_a_version_2_file_is_refused_with_its_version():
    check_refused(DATASET_V2, 2)


@pytest.mark.parametrize("k, fault", [(1, "semicolon"), (2, "semicolon"), (7, "semicolon"),
                                      (1, "cut"), (2, "cut"), (4, "cut"), (7, "cut")])
def test_a_fault_on_line_k_is_placed_on_line_k(tmp_path, k, fault):
    lines = small_dataset_lines(tmp_path)
    line = lines[k - 1].rstrip(b"\n")
    bad = line[:len(line) // 2] if fault == "cut" else line.replace(b",", b";", 1)
    lines[k - 1] = bad + b"\n"
    path = tmp_path / "bad.json"
    path.write_bytes(b"".join(lines))
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(bad)
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    exc = expected.value
    assert str(info.value) == (f"{path}: malformed JSON at line {k} column {exc.colno}: "
                               f"{exc.msg}")


@pytest.mark.parametrize("k", [1, 3, 7])
def test_bad_utf8_on_line_k_is_placed_by_its_byte_in_the_file(tmp_path, k):
    lines = small_dataset_lines(tmp_path)
    at = len(lines[k - 1]) // 2
    lines[k - 1] = lines[k - 1][:at] + b"\xff" + lines[k - 1][at:]
    path = tmp_path / "bad.json"
    path.write_bytes(b"".join(lines))
    byte = sum(map(len, lines[:k - 1])) + at
    with pytest.raises(DataFormatError, match=f"byte {byte}: invalid start byte"):
        load_dataset(path)


@pytest.mark.parametrize("change", ["drop-last", "drop-all", "repeat-last"])
def test_bag_lines_that_do_not_match_the_header_count_are_a_data_format_error(tmp_path, change):
    lines = small_dataset_lines(tmp_path)
    lines = {"drop-last": lines[:-1], "drop-all": lines[:1],
             "repeat-last": lines + lines[-1:]}[change]
    path = tmp_path / "bad.json"
    path.write_bytes(b"".join(lines))
    with pytest.raises(DataFormatError, match=f"{path}: the header declares 6 bags, "
                                              f"the file holds {len(lines) - 1}"):
        load_dataset(path)


def test_a_dataset_read_from_a_pipe_loads(tmp_path):
    text = b"".join(small_dataset_lines(tmp_path))
    expected = load_dataset(tmp_path / "ds.json")
    read_fd, write_fd = os.pipe()

    def write():
        with open(write_fd, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        ds = load_dataset(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)  # a writer left blocked on a full pipe fails and ends
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert ds.split_of == expected.split_of and ds.provenance == expected.provenance
    for a, b in zip(ds.bags, expected.bags, strict=True):
        assert a.id == b.id and a.instances.tobytes() == b.instances.tobytes()


def test_empty_dataset_is_valid(tmp_path):
    ds = Dataset(feature_dim=4, num_classes=2, bags=[])
    path = tmp_path / "empty.json"
    save_dataset(ds, path)
    assert load_dataset(path).bags == []


def test_split_exact_division():
    ds = generate_synthetic(small_config())
    ds = split_dataset(ds, (0.6, 0.2, 0.2), 1)
    for label in (0, 1):
        counts = {
            s: sum(1 for b in ds.bags_in(s) if b.label == label)
            for s in ("train", "val", "test")
        }
        assert counts == {"train": 6, "val": 2, "test": 2}


def test_split_allows_empty_test_with_flag():
    ds = split_dataset(generate_synthetic(small_config()), (0.9, 0.1, 0.0), 2)
    assert ds.bags_in("test") == []
    assert any("empty split: test" in w for w in ds.warnings)


def test_split_deterministic_under_seed():
    ds = generate_synthetic(small_config())
    a = split_dataset(ds, (0.6, 0.2, 0.2), 7).split_of
    b = split_dataset(ds, (0.6, 0.2, 0.2), 7).split_of
    assert a == b


def test_split_every_class_in_every_split_when_feasible():
    ds = generate_synthetic(small_config(bags_per_class=4))
    ds = split_dataset(ds, (0.6, 0.2, 0.2), 0)
    for label in (0, 1):
        for s in ("train", "val", "test"):
            assert any(b.label == label for b in ds.bags_in(s))


def test_split_tiny_class_degrades_with_warning():
    bags = [Bag(id=f"b{i}", instances=np.ones((2, 3)), label=i % 2) for i in range(3)]
    bags.append(Bag(id="b3", instances=np.ones((2, 3)), label=0))
    ds = Dataset(feature_dim=3, num_classes=2, bags=bags)
    out = split_dataset(ds, (0.6, 0.2, 0.2), 0)
    assert any("too few bags" in w for w in out.warnings)


def test_split_validates_ratios():
    ds = generate_synthetic(small_config())
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.5, 0.2, 0.2), 0)
    with pytest.raises(ConfigError):
        split_dataset(ds, (-0.2, 0.6, 0.6), 0)
    with pytest.raises(ConfigError):
        split_dataset(ds, (0.5, 0.5), 0)


def test_dataset_rejects_duplicate_ids():
    bags = [Bag(id="same", instances=np.ones((1, 2)), label=0) for _ in range(2)]
    with pytest.raises(DataFormatError, match="duplicate"):
        Dataset(feature_dim=2, num_classes=2, bags=bags)


def test_separation_failure_raises():
    from acmil.errors import GenerationError

    # 16 means in one dimension can never be mutually separated by the
    # placement radius, so the bounded retries must give up
    cfg = small_config(
        feature_dim=1,
        patterns_per_class=8,
        background_patterns=8,
        patterns_per_bag_max=1,
    )
    with pytest.raises(GenerationError):
        generate_synthetic(cfg)
