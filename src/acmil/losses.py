"""Loss terms and the full analytic backward pass.

Three unweighted terms make up the objective for a bag with label y:

    bag loss        -log Yhat[y]
    branch loss     -(1/M) sum_i log Yhat_i[y]
    diversity loss  2/(M(M-1)) sum_{i<j} cos(a_i, a_j)   (0 when M = 1)

Log arguments are clamped at 1e-12; both class losses are the categorical
generalisation of the binary cross entropy and reduce to it at C = 2.  The
diversity term is computed on the post-mask heatmaps.

Chain-rule decomposition used by ``backward``.  Every stage acts on all M
branches at once: per-branch quantities are (M, ...) stacks, A is the
(M, N) post-mask attention, Z = A H the (M, E) branch embeddings, and g is
the incoming gradient of each stage (per bag):

    softmax + clamped CE   d logits = probs - onehot(y) per row (0 if clamped;
                           1/M on the branch rows)
    linear heads           dW_i = g_i z_i^T,  db_i = g_i,  dz_i = W_i^T g_i
    aggregation Z = A H    dA = dZ H^T,  dH += A^T dZ     (bag: z = a H alike)
    heatmap mean           dA += 1 da^T / M
    cosines                from the Gram matrix K = A A^T, n_i = sqrt(K_ii),
                           c_ij = K_ij / (n_i n_j):
                           d c_ij / d a_i = a_j / (n_i n_j) - c_ij a_i / n_i^2,
                           so dA += coef (P A - diag(sum_j!=i c_ij / n_i^2) A)
                           with P_ij = [i != j] / (n_i n_j), coef = 2/(M(M-1))
    mask renormalisation   row i renormalised: a = (raw * keep)/S,
                           S = sum(raw * keep):
                           d raw = keep * (g - g.a) / S
                           (the 0/1 mask and the top-k selection are
                           constants; gradient flows only through the
                           smooth renormalisation); other rows pass g through
    softmax attention      d scores = raw * (g - g.raw) per row
    gate                   s_in = w_i.(T_ni * S_ni) with the (2, N, M, L) gate
                           buffer [T; S] = [tanh(H V^T); sigm(H U^T)]:
                           dw_il = sum_n T_nil S_nil g_in, dG_nil = g_in w_il,
                           dP = [dG*S*(1-T^2); dG*T*S*(1-S)]   (2, N, ML)
                           d[V; U] = dP^T H,  dH += dP_T V + dP_S U
    embedding              relu: dPre = dH * 1[H > 0] (= 1[pre > 0]); identity: dPre = dH
                           dW_e = dPre^T X, db_e = sum_n dPre

The finite-difference checker in :mod:`acmil.numerics` is the independent
oracle for every line above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bags import Bag
from .errors import NumericsError
from .mil import ForwardTrace
from .model import Model, Params

LOG_CLAMP = 1e-12


@dataclass
class LossBreakdown:
    bag: float
    branch: float
    diversity: float
    total: float


def _clamped_nll(probs: np.ndarray, label: int) -> float:
    return -float(np.log(max(float(probs[label]), LOG_CLAMP)))


def bag_loss(bag_probs: np.ndarray, label: int) -> float:
    """Cross entropy of the bag classifier's probabilities."""
    return _clamped_nll(bag_probs, label)


def branch_loss(branch_probs, label: int) -> float:
    """Mean cross entropy over the per-branch classifier heads (rows)."""
    p = np.asarray(branch_probs, dtype=np.float64)[:, label]
    return float(-np.log(np.maximum(p, LOG_CLAMP)).sum() / len(p))


def branch_cosines(branch_attns) -> tuple[np.ndarray, np.ndarray]:
    """(M, M) pairwise cosines and (M,) norms of the branch heatmaps (rows),
    both from the Gram matrix A A^T."""
    a = np.asarray(branch_attns, dtype=np.float64)
    gram = a @ a.T
    norms = np.sqrt(np.diag(gram))
    return gram / np.outer(norms, norms), norms


def diversity_loss(branch_attns) -> float:
    """Mean pairwise cosine of the branch heatmaps; 0 for a single branch."""
    m = len(branch_attns)
    if m < 2:
        return 0.0
    cos, _ = branch_cosines(branch_attns)
    return 2.0 * float(cos[np.triu_indices(m, 1)].sum()) / (m * (m - 1))


def total_loss(trace: ForwardTrace, label: int, include_diversity: bool = True) -> LossBreakdown:
    """All three terms from a forward trace; fixed summation order."""
    l_bag = bag_loss(trace.bag_probs, label)
    l_branch = branch_loss(trace.branch_probs, label)
    l_div = diversity_loss(trace.attention) if include_diversity else 0.0
    return LossBreakdown(l_bag, l_branch, l_div, (l_bag + l_branch) + l_div)


def _ce_dlogits(probs: np.ndarray, label: int) -> np.ndarray:
    # gradient of -log(max(p_y, clamp)) w.r.t. the logits, per row; exactly
    # zero in the (locally constant) clamped regime
    g = probs.copy()
    g[..., label] -= 1.0
    g[probs[..., label] <= LOG_CLAMP] = 0.0
    return g


def backward(
    trace: ForwardTrace,
    bag: Bag,
    model: Model,
    include_diversity: bool = True,
) -> Params:
    """Analytic gradients of the total loss, in the model's flat layout.

    The masks recorded on the trace are treated as constants, exactly like
    the rest of the trace.
    """
    if trace.gates is None:
        raise ValueError("the trace has no gates: its forward pass scored the bag in row "
                         "blocks, so it kept none for backward")
    label = bag.label
    m, l = model.dims.branches, model.dims.attn_dim
    h = trace.embeddings
    a = trace.attention
    grads = Params(model.dims)

    # bag head and branch heads
    d_bag_logits = _ce_dlogits(trace.bag_probs, label)
    grads.bag_head_w[:] = np.outer(d_bag_logits, trace.bag_embedding)
    grads.bag_head_b[:] = d_bag_logits
    dz_bag = model.bag_head_w.T @ d_bag_logits  # (E,)
    d_logits = _ce_dlogits(trace.branch_probs, label) / m  # (M, C)
    grads.head_w[:] = d_logits[:, :, None] * trace.branch_embeddings[:, None, :]
    grads.head_b[:] = d_logits
    dz = np.einsum("mce,mc->me", model.head_w, d_logits)  # (M, E)

    # aggregation, heatmap mean and diversity
    d_attn = dz @ h.T + (h @ dz_bag) / m  # (M, N)
    dh = np.outer(trace.heatmap, dz_bag) + a.T @ dz
    if include_diversity and m > 1:
        cos, norms = branch_cosines(a)
        off = 1.0 - np.eye(m)
        pair = off / np.outer(norms, norms)
        d_attn += 2.0 / (m * (m - 1)) * (pair @ a - ((cos * off).sum(1) / norms**2)[:, None] * a)

    # mask renormalisation, on the rows that were renormalised
    keep = ~trace.zeroed
    raw = trace.raw_attention
    survivors = (raw * keep).sum(axis=1, keepdims=True)
    d_renorm = keep * (d_attn - (d_attn * a).sum(axis=1, keepdims=True)) / survivors
    d_raw = np.where(trace.renormalized[:, None], d_renorm, d_attn)

    # softmax and gates
    d_scores = raw * (d_raw - (d_raw * raw).sum(axis=1, keepdims=True))  # (M, N)
    n = h.shape[0]
    t, s = trace.gates
    grads.att_w[:] = np.einsum("nml,nml,mn->ml", t, s, d_scores)
    # dP = dG * [S(1 - T^2); TS(1 - S)], built in place (no (N, M, L) temporaries)
    d_pre = np.empty_like(trace.gates)
    d_t, d_s = d_pre
    np.multiply(t, t, out=d_t)
    np.subtract(1.0, d_t, out=d_t)
    d_t *= s
    np.subtract(1.0, s, out=d_s)
    d_s *= s
    d_s *= t
    d_pre *= d_scores.T[:, :, None]
    d_pre *= model.att_w
    d_pre = d_pre.reshape(2, n, m * l)
    np.matmul(d_pre.transpose(0, 2, 1), h, out=grads.att_vu)
    dh += np.matmul(d_pre, model.att_vu).sum(axis=0)

    if model.activation == "relu":
        d_pre_embed = dh * (h > 0.0)
    else:
        d_pre_embed = dh
    grads.embed_w[:] = d_pre_embed.T @ bag.instances
    grads.embed_b[:] = d_pre_embed.sum(axis=0)

    bad = grads.first_nonfinite()
    if bad is not None:
        raise NumericsError(f"non-finite gradient for parameter {bad}")
    return grads
