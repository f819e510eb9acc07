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

V and U stack the M branches' (L, E) matrices.  The gates are computed in
place in the output buffer of a batched product of H with the (2, ML, E)
stack [V; U]: the head of a caller's flat ``workspace``, or a new array.
When the workspace holds the gates of all N rows, as in training, that is
one product, and the trace's gates view it until the next forward pass with
that workspace, or until ``backward`` consumes them: it overwrites them with
their gradient and sets the trace's ``gates`` to None.  Otherwise the rows
are split into the fewest near-equal blocks whose gates fit it, and each
block covers all M branches in one product.  Evaluation scores every bag
this way in a buffer of ``gate_block_values``, so its gate memory is that
buffer, not 2·N·M·L values.  A trace scored in more than one block keeps no
gates, so it is forward-only: ``backward`` cannot run on it.  The embedding
nonlinearity runs in place, so no trace keeps the pre-activations;
``backward`` reads the ReLU's derivative off H.
The mean-of-heatmaps and mean-of-branch-embeddings formulations of z are
algebraically identical; the trace asserts that identity to 1e-10.

Masking zeroes each of the k largest attention values of every branch row
independently with probability p, then divides the row's survivors by their
sum.  It is a train-time regulariser and is skipped at evaluation unless
explicitly enabled.  One call masks the whole (M, N) stack of a bag: the
coins are drawn branch by branch, and within a branch in descending rank
order.  If a row's draw happens to zero every surviving unit of its mass,
that row's mask is discarded and the row returned unchanged (a logged
degenerate event, reachable only when k >= N and p is near 1).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bags import Bag
from .config import Config
from .errors import ConfigError
from .model import Model
from .numerics import relu, require_finite, sigmoid, softmax, stable_argsort_desc
from .rng import Rng

log = logging.getLogger(__name__)

POOLING_MODES = ("max", "mean")


@dataclass
class StkimConfig(Config):
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
            raise ConfigError("count / fraction: set exactly one of them")
        if self.count is not None and self.count < 0:
            raise ConfigError("count must be >= 0")
        if self.fraction is not None and not (0.0 < self.fraction <= 1.0):
            raise ConfigError("fraction must lie in (0, 1]")
        if not (0.0 <= self.prob <= 1.0):
            raise ConfigError("prob must lie in [0, 1]")

    def resolve_k(self, n: int) -> int:
        """Effective top-k size for a bag of n instances.

        Fractions round half-up and never resolve below 1; either form is
        capped at n.
        """
        if self.count is not None:
            return min(self.count, n)
        return min(max(1, int(np.floor(self.fraction * n + 0.5))), n)

    @classmethod
    def from_dict(cls, doc, path: str | None = None) -> "StkimConfig":
        # naming a fraction but no count asks for count=None, not the default
        if isinstance(doc, dict) and "fraction" in doc and "count" not in doc:
            doc = {**doc, "count": None}
        return super().from_dict(doc, path)


class Masked(NamedTuple):
    """Masked attention of a stack of M branch rows over N instances."""

    attention: np.ndarray  # (M, N), rows sum to 1
    zeroed: np.ndarray  # bool (M, N), True where the value was set to 0
    renormalized: np.ndarray  # bool (M,), False where the row passed through


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

    Per-branch quantities are stacked along a leading axis of M rows.  A bag
    scored in row blocks leaves ``gates`` None: the trace is forward-only.
    ``backward`` consumes the gates, overwriting them with their gradient, and
    leaves ``gates`` None too, so a trace supports one backward pass.
    """

    embeddings: np.ndarray  # (N, E)
    gates: np.ndarray | None  # (2, N, M, L) tanh(H V^T), sigm(H U^T)
    raw_attention: np.ndarray  # (M, N) pre-mask softmax output
    attention: np.ndarray  # (M, N) post-mask, rows sum to 1
    zeroed: np.ndarray  # bool (M, N), True where the mask zeroed the value
    renormalized: np.ndarray  # bool (M,)
    branch_embeddings: np.ndarray  # (M, E)
    branch_probs: np.ndarray  # (M, C)
    heatmap: np.ndarray  # (N,) mean of branch attentions
    bag_embedding: np.ndarray  # (E,)
    bag_probs: np.ndarray  # (C,)

    @property
    def branches(self) -> list[BranchView]:
        rows = (self.raw_attention, self.attention, self.zeroed, self.renormalized,
                self.branch_embeddings, self.branch_probs)
        return list(map(BranchView, *rows))


def _embed(bag: Bag, model: Model) -> np.ndarray:
    if bag.feature_dim != model.dims.feature_dim:
        raise ConfigError(
            f"bag {bag.id!r} has {bag.feature_dim} features, model expects "
            f"{model.dims.feature_dim}"
        )
    h = bag.instances @ model.embed_w.T
    h += model.embed_b
    return relu(h, out=h) if model.activation == "relu" else h


# 1 MiB of gates: the rows of a bag scored at evaluation, all M branches at a time
GATE_BLOCK_VALUES = 2**17


def gate_block_values(model: Model) -> int:
    """The size of the gate buffer every bag is scored in at evaluation, a block of
    rows at a time: ``GATE_BLOCK_VALUES``, or three rows of all M branches' gates if
    more.  From three rows on no block of a bag of two or more rows is a single row,
    which BLAS computes as a vector product that rounds differently from the same
    row in a matrix."""
    return max(GATE_BLOCK_VALUES, 3 * 2 * model.dims.branches * model.dims.attn_dim)


def _gated_scores(h: np.ndarray, model: Model, workspace: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """(M, N) scores w_i . (T_i * S_i) of every branch, and the (2, N, M, L) gates
    [tanh(H V^T); sigm(H U^T)], or None when ``workspace`` holds fewer than N
    rows of them.  All N rows are scored in one product if the workspace holds
    them (a new array without one), else in the fewest blocks of near-equal
    rows that fit it, each block's gates activated in place there."""
    n, m, l = len(h), model.dims.branches, model.dims.attn_dim
    row = 2 * m * l
    if workspace is None:
        workspace = np.empty(n * row)
    elif workspace.dtype != np.float64 or workspace.size < row:
        raise ValueError(f"workspace holds {workspace.size} {workspace.dtype} values, "
                         f"one row of all branches' gates needs {row} float64")
    blocks = -(-n // (workspace.size // row))
    scores = np.empty((m, n))
    for b in range(blocks):
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        out = workspace[:(hi - lo) * row].reshape(2, hi - lo, m * l)
        g = np.matmul(h[lo:hi], model.att_vu.transpose(0, 2, 1), out=out)
        np.tanh(g[0], out=g[0])
        sigmoid(g[1], out=g[1])
        t, s = g.reshape(2, hi - lo, m, l)
        np.einsum("nml,nml,ml->mn", t, s, model.att_w, out=scores[:, lo:hi])
    return scores, g.reshape(2, n, m, l) if blocks == 1 else None


def stkim_mask(
    attn: np.ndarray,
    cfg: StkimConfig,
    rng: Rng | None,
    training: bool,
    frozen_zeroed: np.ndarray | None = None,
) -> Masked:
    """Zero each of a row's top-k attention values with probability p, and
    renormalise the rest, for every row of the (M, N) stack ``attn``.

    One ``rng.uniform()`` coin is drawn per top-k slot, branch by branch and
    within a branch in stable descending rank order.  A row passes through
    bit for bit when not training and not enabled at eval, or when none of
    its values ends up zeroed.  ``frozen_zeroed`` (M, N) replays a recorded
    mask instead of drawing, which the gradient checker uses to keep the
    objective deterministic.
    """
    attn = np.asarray(attn, dtype=np.float64)
    m, n = attn.shape
    zeroed = np.zeros((m, n), dtype=bool)
    if not training and not cfg.enabled_at_eval:
        return Masked(attn, zeroed, np.zeros(m, dtype=bool))

    if frozen_zeroed is not None:
        zeroed[:] = frozen_zeroed
    elif cfg.prob > 0.0 and (k := cfg.resolve_k(n)):
        if rng is None:
            raise ConfigError("stkim_mask needs an rng when masking is active")
        coins = np.array([rng.uniform() for _ in range(m * k)]).reshape(m, k)
        np.put_along_axis(zeroed, stable_argsort_desc(attn)[:, :k], coins < cfg.prob, axis=1)

    survivors = attn * ~zeroed
    total = survivors.sum(axis=1)
    discarded = zeroed.any(axis=1) & (total == 0.0)
    for _ in range(np.count_nonzero(discarded)):
        log.info("stkim: every positive attention value was masked; mask discarded")
    zeroed[discarded] = False
    renormalized = zeroed.any(axis=1)
    if not renormalized.any():
        return Masked(attn, zeroed, renormalized)
    out = attn.copy()
    out[renormalized] = survivors[renormalized] / total[renormalized, None]
    return Masked(out, zeroed, renormalized)


def mba_forward(
    bag: Bag,
    model: Model,
    stkim: StkimConfig,
    rng: Rng | None,
    training: bool,
    frozen_masks: np.ndarray | None = None,
    workspace: np.ndarray | None = None,
) -> ForwardTrace:
    """Full multi-branch forward pass producing a trace for backward.

    One ``stkim_mask`` call masks every branch, drawing from ``rng`` in
    branch order; ``frozen_masks`` (M, N) replays recorded masks instead.
    With one branch and masking off this is exactly the classic single-head
    gated-attention pipeline.  A flat float64 ``workspace`` of at least
    2·M·L values (see ``gate_block_values``) holds the gates instead of a
    new array; one of fewer than 2·N·M·L scores the bag in row blocks and
    leaves a forward-only trace, without gates.
    """
    h = _embed(bag, model)
    scores, gates = _gated_scores(h, model, workspace)
    raw = softmax(scores)
    attention, zeroed, renormalized = stkim_mask(raw, stkim, rng, training, frozen_masks)

    branch_embeddings = attention @ h
    branch_logits = np.einsum("mce,me->mc", model.head_w, branch_embeddings) + model.head_b
    heatmap = attention.mean(axis=0)
    bag_embedding = heatmap @ h
    bag_probs = softmax(model.bag_head_w @ bag_embedding + model.bag_head_b)
    require_finite(bag_probs, "bag probabilities")

    if np.max(np.abs(bag_embedding - branch_embeddings.mean(axis=0))) > 1e-10:
        raise AssertionError("heatmap-average and branch-mean bag embeddings diverged")

    return ForwardTrace(
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
        bag_probs=bag_probs,
    )


def pooling_forward(bag: Bag, model: Model, mode: str) -> np.ndarray:
    """Max- or mean-pooling baseline: pooled embedding through the bag head."""
    if mode not in POOLING_MODES:
        raise ConfigError(f"unknown pooling mode {mode!r}; choose from {POOLING_MODES}")
    h = _embed(bag, model)
    require_finite(h, "instance embeddings")
    pooled = h.max(axis=0) if mode == "max" else h.mean(axis=0)
    return softmax(model.bag_head_w @ pooled + model.bag_head_b)
