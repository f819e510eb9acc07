"""Compare masking strategies, including the degenerate full-mask regime.

Three named strategies differ in how many attention values are candidates
for masking and with what probability:

    stkim   10 instances at p = 0.6
    weno    95 instances at p = 1.0
    mhim    1% of instances at p = 0.5

On bags smaller than 95 instances the second strategy zeroes every
attention value; the op then discards that row's mask and returns the row
unchanged (a logged degenerate event), so training continues safely.
"""

import numpy as np

from acmil import Rng, StkimConfig, softmax, stkim_mask
from acmil.cli import MASK_PRESETS

attn = softmax(Rng(0).normal_array((50,)))
print("bag of 50 instances; pre-mask top-10 mass "
      f"{np.sort(attn)[::-1][:10].sum():.3f}\n")

# 200 draws as one call on a stack of 200 copies of the bag's attention row:
# the coins fall row by row, as they would for 200 branches
draws = np.tile(attn, (200, 1))
for name, fields in MASK_PRESETS.items():
    cfg = StkimConfig(count=fields["count"], fraction=fields["fraction"], prob=fields["prob"])
    res = stkim_mask(draws, cfg, Rng(42), training=True)
    masked_counts = res.zeroed.sum(axis=1)
    top10_masses = np.sort(res.attention, axis=1)[:, ::-1][:, :10].sum(axis=1)
    k_eff = cfg.resolve_k(len(attn))
    print(f"{name:6s} resolves to k={k_eff:3d}, p={cfg.prob}")
    print(f"        masked per draw: mean {np.mean(masked_counts):5.2f}  "
          f"max {max(masked_counts)}")
    print(f"        post-mask top-10 mass: mean {np.mean(top10_masses):.3f}")
    if max(masked_counts) == 0 and cfg.prob == 1.0:
        print("        (every draw hit the degenerate full-mask fallback)")
    print()
