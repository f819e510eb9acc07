"""Synthetic multi-pattern bag generation, dataset files and splits.

The generator encodes the two phenomena the model is built around: every
positive class owns several well-separated discriminative Gaussian patterns
(so that a single attention branch cannot cover them all), and positive
bags carry many discriminative instances (so that concentrating attention
on a handful is a real failure mode).  Negative (class 0) bags draw only
from shared background patterns.

Datasets are stored as canonical JSON text whose floats round-trip
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .bags import Bag
from .config import Config, decode
from .errors import ConfigError, DataFormatError, GenerationError
from .rng import Rng

DATASET_FORMAT = "acmil-dataset"
DATASET_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")


@dataclass
class SyntheticConfig(Config):
    num_classes: int = 2
    feature_dim: int = 32
    patterns_per_class: int = 4
    background_patterns: int = 3
    cluster_std: float = 1.0
    cluster_separation: float = 8.0
    bags_per_class: int = 60
    instances_min: int = 100
    instances_max: int = 200
    positive_fraction_min: float = 0.1
    positive_fraction_max: float = 0.4
    patterns_per_bag_min: int = 1
    patterns_per_bag_max: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.patterns_per_class < 1 or self.background_patterns < 1:
            raise ConfigError("patterns_per_class and background_patterns must be >= 1")
        if self.instances_min < 1 or self.instances_max < self.instances_min:
            raise ConfigError("instances_min must lie in [1, instances_max]")
        if not (0.0 < self.positive_fraction_min <= self.positive_fraction_max < 1.0):
            raise ConfigError("positive_fraction_min/max must satisfy 0 < min <= max < 1")
        if not (1 <= self.patterns_per_bag_min <= self.patterns_per_bag_max):
            raise ConfigError("patterns_per_bag_min must lie in [1, patterns_per_bag_max]")
        if self.cluster_std <= 0 or self.cluster_separation <= 0:
            raise ConfigError("cluster_std and cluster_separation must be positive")
        if self.bags_per_class < 1:
            raise ConfigError("bags_per_class must be >= 1")


@dataclass
class Dataset:
    feature_dim: int
    num_classes: int
    bags: list[Bag]
    provenance: dict = field(default_factory=dict)
    split_of: dict[str, str] = field(default_factory=dict)  # bag id -> split name
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for b in self.bags:
            if b.id in seen:
                raise DataFormatError(f"duplicate bag id {b.id!r}")
            seen.add(b.id)
            if b.feature_dim != self.feature_dim:
                raise DataFormatError(
                    f"bag {b.id!r} has {b.feature_dim} features, dataset declares "
                    f"{self.feature_dim}"
                )
            if b.label >= self.num_classes:
                raise DataFormatError(f"bag {b.id!r} label {b.label} out of range")
        for bag_id, split in self.split_of.items():
            if bag_id not in seen:
                raise DataFormatError(f"split assignment for unknown bag {bag_id!r}")
            if split not in SPLIT_NAMES:
                raise DataFormatError(f"unknown split name {split!r}")

    def bags_in(self, split: str) -> list[Bag]:
        return [b for b in self.bags if self.split_of.get(b.id) == split]


def _place_cluster_means(cfg: SyntheticConfig, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Pattern and background means with all pairwise distances >= separation."""
    n_pattern = (cfg.num_classes - 1) * cfg.patterns_per_class
    n_total = n_pattern + cfg.background_patterns
    # means live on a sphere-ish cloud of radius ~ separation * sqrt(dim),
    # so the constraint nearly always holds on the first try
    scale = cfg.cluster_separation
    for _ in range(100):
        means = rng.normal_array((n_total, cfg.feature_dim)) * scale
        diff = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= cfg.cluster_separation:
            return means[:n_pattern], means[n_pattern:]
    raise GenerationError(
        "could not place cluster means at the requested separation after 100 attempts"
    )


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Deterministic multi-pattern bag dataset from a config (seed included)."""
    rng = Rng.stream(cfg.seed, 0)
    pattern_means, background_means = _place_cluster_means(cfg, rng)
    bags: list[Bag] = []
    for label in range(cfg.num_classes):
        for b in range(cfg.bags_per_class):
            n = rng.int_range(cfg.instances_min, cfg.instances_max)
            features = np.empty((n, cfg.feature_dim))
            inst_labels = np.zeros(n, dtype=np.int64)
            n_pos = 0
            if label >= 1:
                frac = rng.uniform(cfg.positive_fraction_min, cfg.positive_fraction_max)
                # at least one discriminative instance in every positive bag
                n_pos = max(1, int(np.floor(frac * n + 0.5)))
                k_hi = min(cfg.patterns_per_bag_max, cfg.patterns_per_class)
                k_lo = min(cfg.patterns_per_bag_min, k_hi)
                k = rng.int_range(k_lo, k_hi)
                chosen = rng.sample_without_replacement(cfg.patterns_per_class, k)
                base = (label - 1) * cfg.patterns_per_class
                for row in range(n_pos):
                    p = chosen[rng.integers(k)]
                    features[row] = pattern_means[base + p] + cfg.cluster_std * rng.normal_array(
                        (cfg.feature_dim,)
                    )
                    inst_labels[row] = 1 + base + p
            for row in range(n_pos, n):
                g = rng.integers(cfg.background_patterns)
                features[row] = background_means[g] + cfg.cluster_std * rng.normal_array(
                    (cfg.feature_dim,)
                )
            order = rng.permutation(n)
            features = features[order]
            inst_labels = inst_labels[order]
            bags.append(
                Bag(
                    id=f"c{label}-{b:03d}",
                    instances=features,
                    label=label,
                    instance_labels=inst_labels,
                )
            )
    return Dataset(
        feature_dim=cfg.feature_dim,
        num_classes=cfg.num_classes,
        bags=bags,
        provenance={"kind": "synthetic", "config": cfg.to_dict()},
    )


def split_dataset(ds: Dataset, ratios, seed: int) -> Dataset:
    """Stratified train/val/test assignment; deterministic under the seed.

    Counts use floor(ratio * n) per class with the rounding residue going to
    the training split; afterwards any positive-ratio split left empty for a
    class is topped up from the largest split when the class has enough
    bags.  Classes too small to stratify degrade to the plain allocation
    with a recorded warning.
    """
    ratios = [float(r) for r in ratios]
    if len(ratios) != len(SPLIT_NAMES):
        raise ConfigError("ratios must have three entries (train, val, test)")
    if any(r < 0 for r in ratios):
        raise ConfigError("ratios must be nonnegative")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("ratios must sum to 1")

    rng = Rng.stream(seed, 0)
    warnings: list[str] = []
    split_of: dict[str, str] = {}
    by_class: dict[int, list[Bag]] = {}
    for b in ds.bags:
        by_class.setdefault(b.label, []).append(b)

    positive_splits = [i for i, r in enumerate(ratios) if r > 0]
    for label in sorted(by_class):
        group = sorted(by_class[label], key=lambda b: b.id)
        rng.shuffle(group)
        n = len(group)
        counts = [int(np.floor(r * n)) for r in ratios]
        counts[0] += n - sum(counts)
        if n < len(positive_splits):
            warnings.append(f"class {label}: too few bags to stratify ({n})")
        else:
            # feasibility fix: every positive-ratio split gets at least one bag
            for i in positive_splits:
                while counts[i] == 0:
                    donor = max(range(len(counts)), key=lambda j: counts[j])
                    if counts[donor] <= 1:
                        break
                    counts[donor] -= 1
                    counts[i] += 1
        pos = 0
        for split_idx, count in enumerate(counts):
            for b in group[pos : pos + count]:
                split_of[b.id] = SPLIT_NAMES[split_idx]
            pos += count
    for i, r in enumerate(ratios):
        if r == 0.0:
            warnings.append(f"empty split: {SPLIT_NAMES[i]}")
    return Dataset(
        feature_dim=ds.feature_dim,
        num_classes=ds.num_classes,
        bags=ds.bags,
        provenance=ds.provenance,
        split_of=split_of,
        warnings=ds.warnings + warnings,
    )


def save_dataset(ds: Dataset, path) -> None:
    """Canonical one-line JSON; floats at their shortest round-trip text (bit-exact)."""
    records = []
    for b in ds.bags:
        rec: dict = {"id": b.id, "label": b.label}
        if b.id in ds.split_of:
            rec["split"] = ds.split_of[b.id]
        if b.instance_labels is not None:
            rec["instance_labels"] = b.instance_labels
        rec["instances"] = b.instances
        records.append(rec)
    doc = {
        "format": DATASET_FORMAT,
        "format_version": DATASET_VERSION,
        "feature_dim": ds.feature_dim,
        "num_classes": ds.num_classes,
        "provenance": ds.provenance,
        "warnings": ds.warnings,
        "bags": records,
    }
    jsonio.dump(doc, path)


def _float_rows(rows):
    """``rows`` as a float64 array if it is a rectangular 2-d list of numbers, else as given."""
    try:
        a = np.array(rows)
    except ValueError:  # ragged
        return rows
    return a.astype(np.float64, copy=False) if a.ndim == 2 and a.dtype.kind in "fiu" else rows


def _bag_arrays(obj: dict) -> dict:
    """JSON object hook: a bag record's lists become arrays as soon as the decoder
    closes it, so one bag at most is held as lists; ``load_dataset`` reports the rest."""
    if "instances" in obj:
        obj["instances"] = _float_rows(obj["instances"])
        labels = obj.get("instance_labels")
        if type(labels) is list and all(type(v) is int and abs(v) < 2**63 for v in labels):
            obj["instance_labels"] = np.array(labels, dtype=np.int64)
    return obj


def _rows_fault(bag_id: str, rows, feature_dim: int) -> str:
    """Why a bag's instances are not an (N, feature_dim) array of numbers."""
    if isinstance(rows, (list, np.ndarray)):
        for r, row in enumerate(rows):
            if isinstance(row, (list, np.ndarray)) and len(row) != feature_dim:
                return (f"bag {bag_id!r} row {r} has {len(row)} values, "
                        f"expected feature_dim={feature_dim}")
    return f"bag {bag_id!r} instances must be a non-empty list of rows of numbers"


def load_dataset(path) -> Dataset:
    """The dataset in ``path``; every fault is a DataFormatError naming the file.
    Loading peaks at about twice the file size (its bytes and its text) plus
    the arrays: ``_bag_arrays`` converts each bag as soon as it is parsed."""
    doc = jsonio.load(path, object_hook=_bag_arrays)
    try:
        if not isinstance(doc, dict) or doc.get("format") != DATASET_FORMAT:
            raise DataFormatError("not a dataset file")
        if doc.get("format_version") != DATASET_VERSION:
            raise DataFormatError("unsupported dataset version")
        feature_dim = decode(doc["feature_dim"], int, "feature_dim")
        num_classes = decode(doc["num_classes"], int, "num_classes")
        bags = []
        split_of = {}
        for rec in doc["bags"]:
            bag_id = str(rec["id"])
            features = rec["instances"]
            if not isinstance(features, np.ndarray) or features.shape[1] != feature_dim:
                raise DataFormatError(_rows_fault(bag_id, features, feature_dim))
            if features.size and not np.all(np.isfinite(features)):
                raise DataFormatError(f"bag {bag_id!r} contains NaN/Inf features")
            labels = rec.get("instance_labels")
            if labels is not None and not isinstance(labels, np.ndarray):
                raise DataFormatError(f"bag {bag_id!r} instance_labels must be 64-bit integers")
            label = decode(rec["label"], int, f"bag {bag_id!r} label")
            bags.append(Bag(id=bag_id, instances=features, label=label, instance_labels=labels))
            if "split" in rec:
                split_of[bag_id] = str(rec["split"])
        return Dataset(
            feature_dim=feature_dim,
            num_classes=num_classes,
            bags=bags,
            provenance=doc.get("provenance", {}),
            split_of=split_of,
            warnings=list(doc.get("warnings", [])),
        )
    except DataFormatError as exc:  # from here, Bag or Dataset: add the file
        raise DataFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataFormatError(f"{path}: malformed dataset ({type(exc).__name__}: {exc})") from exc
