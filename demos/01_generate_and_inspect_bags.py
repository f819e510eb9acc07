"""Generate a synthetic multi-pattern bag dataset and look inside it.

Each positive bag mixes instances from a few of its class's discriminative
Gaussian patterns with shared background instances; negative bags contain
background only.  Per-instance labels record which pattern produced each
instance (0 = background) and exist purely for diagnostics.
"""

import tempfile
from pathlib import Path

import numpy as np

from acmil import SyntheticConfig, generate_synthetic, load_dataset, save_dataset, split_dataset

cfg = SyntheticConfig()  # desk-scale defaults: 2 classes, 32-d features, 60 bags per class
ds = generate_synthetic(cfg)
ds = split_dataset(ds, ratios=(0.6, 0.2, 0.2), seed=0)

print(f"{len(ds.bags)} bags, feature_dim={ds.feature_dim}, classes={ds.num_classes}")
for split in ("train", "val", "test"):
    bags = ds.bags_in(split)
    print(f"  {split}: {len(bags)} bags "
          f"({sum(1 for b in bags if b.label == 1)} positive)")

pos = next(b for b in ds.bags if b.label == 1)
frac = float((pos.instance_labels >= 1).mean())
patterns = sorted(set(pos.instance_labels.tolist()) - {0})
print(f"\nexample positive bag {pos.id}: {pos.n_instances} instances, "
      f"{frac:.0%} discriminative, patterns {patterns}")

neg = next(b for b in ds.bags if b.label == 0)
print(f"example negative bag {neg.id}: {neg.n_instances} instances, "
      f"{int((neg.instance_labels >= 1).sum())} discriminative")

# pattern clusters are far apart relative to their spread, so a linear probe
# separates discriminative from background instances almost perfectly
x = np.vstack([b.instances for b in ds.bags])
y = np.concatenate([b.instance_labels >= 1 for b in ds.bags])
direction = x[y].mean(axis=0) - x[~y].mean(axis=0)
scores = x @ direction
pos_scores, neg_scores = np.sort(scores[y]), np.sort(scores[~y])
wins = sum(np.searchsorted(neg_scores, s, side="left") for s in pos_scores)
print(f"\nlinear-probe instance AUC ~= {wins / (len(pos_scores) * len(neg_scores)):.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "synthetic_bags.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    size = path.stat().st_size
assert back.split_of == ds.split_of and back.provenance == ds.provenance
for a, b in zip(back.bags, ds.bags, strict=True):
    assert (a.id, a.label) == (b.id, b.label)
    assert a.instances.tobytes() == b.instances.tobytes()
    assert a.instance_labels.tobytes() == b.instance_labels.tobytes()
print(f"\nsaved and reloaded a {size / 1e6:.1f} MB dataset file (JSON Lines, features "
      "packed as float64): every bag is bit-exact")
