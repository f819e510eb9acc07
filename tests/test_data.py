import tracemalloc

import numpy as np
import pytest

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
    # the file's bytes and its decoded text are both held for a moment; the
    # bags must not also be held as Python lists, at 32 bytes per value
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


def test_load_rejects_wrong_row_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"format": "acmil-dataset", "format_version": 1, "feature_dim": 3,'
        ' "num_classes": 2, "provenance": {}, "warnings": [],'
        ' "bags": [{"id": "bag-x", "label": 0, "instances": [[1.0, 2.0]]}]}'
    )
    with pytest.raises(DataFormatError, match="bag-x"):
        load_dataset(path)


def test_load_rejects_non_finite_features(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"format": "acmil-dataset", "format_version": 1, "feature_dim": 2,'
        ' "num_classes": 2, "provenance": {}, "warnings": [],'
        ' "bags": [{"id": "b", "label": 0, "instances": [[1.0, NaN]]}]}'
    )
    with pytest.raises(DataFormatError):
        load_dataset(path)


def test_load_reports_line_and_column_for_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "acmil-dataset",\n  "oops"\n}')
    with pytest.raises(DataFormatError, match="line"):
        load_dataset(path)


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
