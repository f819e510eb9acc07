"""Forward pass: embedding, gated attention, stochastic top-k masking,
attention-weighted aggregation and classification.

One bag flows through as

    H   = act(X W_e^T + b_e)                         (N, E) instance embeddings
    [T; S] = [tanh(H V^T); sigm(H U^T)]              (2, N, M, L) gates
    s_in = sum_l w_il T_nil S_nil                    (M, N) branch scores
    A^raw = softmax(s) along instances               pre-mask attention rows
    A   = mask + renormalise (training only)         post-mask attention rows
    Z   = A H                                        (M, E) branch embeddings
    z   = mean_i(A_i) H = mean_i Z_i                 (E,) bag embedding

V and U stack the M branches' (L, E) matrices, so one batched product of H
with the (2, ML, E) stack [V; U] scores every branch; the gates are computed
in place in that product's output buffer, whose two halves are contiguous.  The mean-of-heatmaps and
mean-of-branch-embeddings formulations of z are algebraically identical;
the trace asserts that identity to 1e-10.

Masking zeroes each of the k largest attention values independently with
probability p, then divides the survivors by their sum.  It is a train-time
regulariser and is skipped at evaluation unless explicitly enabled.  Each
branch draws its own mask, in branch order.  If a draw happens to zero
every surviving unit of mass the mask is discarded and the input returned
unchanged (a logged degenerate event, reachable only when k >= N and p is
near 1).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bags import Bag
from .errors import ConfigError
from .model import Model
from .numerics import relu, require_finite, sigmoid, softmax, stable_argsort_desc
from .rng import Rng

log = logging.getLogger(__name__)

POOLING_MODES = ("max", "mean")


@dataclass
class StkimConfig:
    """Masking intensity: a top-k size (count or bag fraction) and a probability.

    Exactly one of ``count`` / ``fraction`` is set.  ``enabled_at_eval``
    keeps the masking active outside training (off by default; evaluation
    normally removes it).
    """

    count: int | None = 10
    fraction: float | None = None
    prob: float = 0.6
    enabled_at_eval: bool = False

    def __post_init__(self):
        if (self.count is None) == (self.fraction is None):
            raise ConfigError("stkim: set exactly one of count / fraction")
        if self.count is not None and self.count < 0:
            raise ConfigError("stkim: count must be >= 0")
        if self.fraction is not None and not (0.0 < self.fraction <= 1.0):
            raise ConfigError("stkim: fraction must lie in (0, 1]")
        if not (0.0 <= self.prob <= 1.0):
            raise ConfigError("stkim: prob must lie in [0, 1]")

    def resolve_k(self, n: int) -> int:
        """Effective top-k size for a bag of n instances.

        Fractions round half-up and never resolve below 1; either form is
        capped at n.
        """
        if self.count is not None:
            return min(self.count, n)
        return min(max(1, int(np.floor(self.fraction * n + 0.5))), n)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "fraction": self.fraction,
            "prob": self.prob,
            "enabled_at_eval": self.enabled_at_eval,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StkimConfig":
        count = d.get("count")
        fraction = d.get("fraction")
        if "count" not in d and "fraction" not in d:
            count = 10  # constructor default
        return cls(
            count=count,
            fraction=fraction,
            prob=float(d.get("prob", 0.6)),
            enabled_at_eval=bool(d.get("enabled_at_eval", False)),
        )


@dataclass
class MaskResult:
    attention: np.ndarray
    zeroed: np.ndarray  # bool (N,), True where the value was set to 0
    renormalized: bool  # False when the op was an identity (or fallback)


class BranchView(NamedTuple):
    """Row i of a trace's stacked per-branch arrays."""

    raw_attention: np.ndarray  # (N,)
    attention: np.ndarray  # (N,)
    zeroed: np.ndarray  # bool (N,)
    renormalized: bool
    embedding: np.ndarray  # (E,)
    probs: np.ndarray  # (C,)


@dataclass
class ForwardTrace:
    """Every intermediate of one bag's forward pass, retained for backward.

    Per-branch quantities are stacked along a leading axis of M rows.
    """

    pre_activations: np.ndarray  # (N, E) before the embedding nonlinearity
    embeddings: np.ndarray  # (N, E)
    gates: np.ndarray  # (2, N, M, L): tanh(H V^T) and sigm(H U^T)
    raw_attention: np.ndarray  # (M, N) pre-mask softmax output
    attention: np.ndarray  # (M, N) post-mask, rows sum to 1
    zeroed: np.ndarray  # bool (M, N), True where the mask zeroed the value
    renormalized: np.ndarray  # bool (M,)
    branch_embeddings: np.ndarray  # (M, E)
    branch_probs: np.ndarray  # (M, C)
    heatmap: np.ndarray  # (N,) mean of branch attentions
    bag_embedding: np.ndarray  # (E,)
    bag_logits: np.ndarray  # (C,)
    bag_probs: np.ndarray  # (C,)

    @property
    def branches(self) -> list[BranchView]:
        rows = (self.raw_attention, self.attention, self.zeroed, self.renormalized,
                self.branch_embeddings, self.branch_probs)
        return list(map(BranchView, *rows))


def _embed(bag: Bag, model: Model) -> tuple[np.ndarray, np.ndarray]:
    if bag.feature_dim != model.dims.feature_dim:
        raise ConfigError(
            f"bag {bag.id!r} has {bag.feature_dim} features, model expects "
            f"{model.dims.feature_dim}"
        )
    pre = bag.instances @ model.embed_w.T + model.embed_b
    h = relu(pre) if model.activation == "relu" else pre
    return pre, h


def embed_instances(bag: Bag, model: Model) -> np.ndarray:
    """(N, E) instance embeddings through the shared linear layer."""
    _, h = _embed(bag, model)
    require_finite(h, "instance embeddings")
    return h


def _gates(embeddings: np.ndarray, model: Model) -> np.ndarray:
    """(2, N, M, L) gate buffer [tanh(H V^T); sigm(H U^T)], activated in place."""
    g = np.matmul(embeddings, model.att_vu.transpose(0, 2, 1))
    np.tanh(g[0], out=g[0])
    sigmoid(g[1], out=g[1])
    return g.reshape(2, len(embeddings), model.dims.branches, model.dims.attn_dim)


def _scores(gates: np.ndarray, model: Model) -> np.ndarray:
    """(M, N) scores w_i . (T_i * S_i) of every branch."""
    t, s = gates
    return np.einsum("nml,nml,ml->mn", t, s, model.att_w, order="C")


def gated_attention(embeddings: np.ndarray, model: Model) -> np.ndarray:
    """(M, N) softmax-normalised gated attention of every branch."""
    return softmax(_scores(_gates(embeddings, model), model))


def stkim_mask(
    attn: np.ndarray,
    cfg: StkimConfig,
    rng: Rng | None,
    training: bool,
    frozen_zeroed: np.ndarray | None = None,
) -> MaskResult:
    """Zero each top-k attention value with probability p, renormalise the rest.

    Identity (bit-exact) when not training and not enabled at eval, or when
    no value ends up zeroed.  ``frozen_zeroed`` replays a recorded mask
    instead of drawing, which the gradient checker uses to keep the
    objective deterministic.
    """
    attn = np.asarray(attn, dtype=np.float64)
    n = attn.shape[0]
    no_mask = np.zeros(n, dtype=bool)
    if not training and not cfg.enabled_at_eval:
        return MaskResult(attn, no_mask, False)

    if frozen_zeroed is not None:
        zeroed = frozen_zeroed.astype(bool)
    else:
        zeroed = no_mask.copy()
        if cfg.prob > 0.0:
            k_eff = cfg.resolve_k(n)
            order = stable_argsort_desc(attn)
            for idx in order[:k_eff]:
                if rng is None:
                    raise ConfigError("stkim_mask needs an rng when masking is active")
                if rng.uniform() < cfg.prob:
                    zeroed[idx] = True

    if not zeroed.any():
        return MaskResult(attn, no_mask, False)
    survivors = attn * ~zeroed
    total = survivors.sum()
    if total == 0.0:
        log.info("stkim: every positive attention value was masked; mask discarded")
        return MaskResult(attn, no_mask, False)
    return MaskResult(survivors / total, zeroed, True)


def aggregate(attn: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Attention-weighted sum of instance embeddings."""
    attn = np.asarray(attn, dtype=np.float64)
    if attn.shape[0] != embeddings.shape[0]:
        raise ValueError("attention length must match the instance count")
    return attn @ embeddings


def average_heatmap(branch_attns) -> np.ndarray:
    """Elementwise mean of the branch heatmaps (rows); still sums to 1."""
    attns = np.asarray(branch_attns, dtype=np.float64)
    if attns.ndim != 2 or len(attns) < 1:
        raise ValueError("average_heatmap needs at least one heatmap")
    return attns.mean(axis=0)


def mba_forward(
    bag: Bag,
    model: Model,
    stkim: StkimConfig,
    rng: Rng | None,
    training: bool,
    frozen_masks: np.ndarray | None = None,
) -> ForwardTrace:
    """Full multi-branch forward pass producing a trace for backward.

    Branches draw their masks independently, in branch order, from ``rng``;
    ``frozen_masks`` (M, N) replays recorded ones instead.  With one branch
    and masking off this is exactly the classic single-head gated-attention
    pipeline.
    """
    pre, h = _embed(bag, model)
    gates = _gates(h, model)
    raw = softmax(_scores(gates, model))
    attention = raw.copy()
    zeroed = np.zeros(raw.shape, dtype=bool)
    renormalized = np.zeros(len(raw), dtype=bool)
    for i, raw_i in enumerate(raw):
        frozen = frozen_masks[i] if frozen_masks is not None else None
        res = stkim_mask(raw_i, stkim, rng, training, frozen_zeroed=frozen)
        attention[i], zeroed[i], renormalized[i] = res.attention, res.zeroed, res.renormalized

    branch_embeddings = attention @ h
    branch_logits = np.einsum("mce,me->mc", model.head_w, branch_embeddings) + model.head_b
    heatmap = average_heatmap(attention)
    bag_embedding = aggregate(heatmap, h)
    bag_logits = model.bag_head_w @ bag_embedding + model.bag_head_b
    bag_probs = softmax(bag_logits)
    require_finite(bag_probs, "bag probabilities")

    if np.max(np.abs(bag_embedding - branch_embeddings.mean(axis=0))) > 1e-10:
        raise AssertionError("heatmap-average and branch-mean bag embeddings diverged")

    return ForwardTrace(
        pre_activations=pre,
        embeddings=h,
        gates=gates,
        raw_attention=raw,
        attention=attention,
        zeroed=zeroed,
        renormalized=renormalized,
        branch_embeddings=branch_embeddings,
        branch_probs=softmax(branch_logits),
        heatmap=heatmap,
        bag_embedding=bag_embedding,
        bag_logits=bag_logits,
        bag_probs=bag_probs,
    )


def pooling_forward(bag: Bag, model: Model, mode: str) -> np.ndarray:
    """Max- or mean-pooling baseline: pooled embedding through the bag head."""
    if mode not in POOLING_MODES:
        raise ConfigError(f"unknown pooling mode {mode!r}; choose from {POOLING_MODES}")
    h = embed_instances(bag, model)
    pooled = h.max(axis=0) if mode == "max" else h.mean(axis=0)
    return softmax(model.bag_head_w @ pooled + model.bag_head_b)
