"""Classification metrics and attention diagnostics.

AUC uses the Mann-Whitney rank statistic with ties counted half, macro
scores average classes with equal weight (the datasets this targets are
imbalanced), and the attention diagnostics quantify concentration: Shannon
entropy in nats and the cumulative mass of the top-k values.  Clustering
quality of bag embeddings is measured with Lloyd k-means plus the
V-measure, and per-instance attention can be scored against diagnostic
instance labels as a binary localization AUC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossBreakdown
from .rng import Rng


def _rank_with_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank block."""
    _, block, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[block]


def binary_auc(scores, labels) -> float | None:
    """P(score_pos > score_neg) + 0.5 P(tie); None if one class is absent."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _rank_with_ties(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def macro_auc(probs, labels, num_classes: int) -> tuple[float | None, list[float | None]]:
    """One-vs-rest AUC per class, macro-averaged over computable classes."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] < 2:
        raise ValueError("macro_auc requires at least two bags of class probabilities")
    per_class: list[float | None] = []
    for c in range(num_classes):
        per_class.append(binary_auc(probs[:, c], (labels == c).astype(np.int64)))
    present = [v for v in per_class if v is not None]
    macro = float(np.mean(present)) if present else None
    return macro, per_class


def macro_f1(predictions, labels, num_classes: int) -> tuple[float, list[float]]:
    """Per-class F1 with the 0/0 -> 0 convention, averaged over all classes."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    per_class = []
    for c in range(num_classes):
        tp = int(((predictions == c) & (labels == c)).sum())
        fp = int(((predictions == c) & (labels != c)).sum())
        fn = int(((predictions != c) & (labels == c)).sum())
        denom = 2 * tp + fp + fn
        per_class.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(per_class)), per_class


def attention_entropy(attn) -> float:
    """Shannon entropy of an attention vector in nats, with 0 ln 0 = 0."""
    a = np.asarray(attn, dtype=np.float64)
    nz = a[a > 0.0]
    return float(-(nz * np.log(nz)).sum())


def topk_cumulative(attn, k: int) -> float:
    """Sum of the min(k, N) largest attention values."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = np.sort(np.asarray(attn, dtype=np.float64))[::-1]
    return float(a[: min(k, a.shape[0])].sum())


def kmeans(points, k: int, seed: int = 0, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with k-means++ style seeding; deterministic.

    Empty clusters are re-seeded from the point farthest from its centroid.
    Stops when assignments stabilise or after max_iters sweeps.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k < 1 or k > n:
        raise ValueError("k must lie in [1, n_points]")
    rng = Rng.stream(seed, 0)

    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[j] = pts[rng.integers(n)]
        else:
            r = rng.uniform() * total
            centers[j] = pts[int(np.searchsorted(np.cumsum(d2), r, side="right").clip(0, n - 1))]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dist = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = pts[assign == j]
            if len(members) == 0:
                farthest = int(np.argmax(dist[np.arange(n), assign]))
                centers[j] = pts[farthest]
                assign[farthest] = j
            else:
                centers[j] = members.mean(axis=0)
    return assign


def _entropy_of_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def v_measure(cluster_assignments, true_labels) -> tuple[float, float, float]:
    """(homogeneity, completeness, v) from the contingency table.

    Conventions: H(class) = 0 gives h = 1, H(cluster) = 0 gives c = 1, and
    h = c = 0 gives v = 0.
    """
    clusters = np.asarray(cluster_assignments, dtype=np.int64)
    labels = np.asarray(true_labels, dtype=np.int64)
    if clusters.shape != labels.shape or clusters.size == 0:
        raise ValueError("v_measure requires two equal-length non-empty label arrays")
    n = clusters.size
    cluster_ids = np.unique(clusters)
    label_ids = np.unique(labels)
    table = np.zeros((len(cluster_ids), len(label_ids)))
    for ci, cv in enumerate(cluster_ids):
        for li, lv in enumerate(label_ids):
            table[ci, li] = int(((clusters == cv) & (labels == lv)).sum())

    h_class = _entropy_of_counts(table.sum(axis=0))
    h_cluster = _entropy_of_counts(table.sum(axis=1))
    h_class_given_cluster = 0.0
    h_cluster_given_class = 0.0
    for ci in range(len(cluster_ids)):
        row = table[ci]
        h_class_given_cluster += (row.sum() / n) * _entropy_of_counts(row)
    for li in range(len(label_ids)):
        col = table[:, li]
        h_cluster_given_class += (col.sum() / n) * _entropy_of_counts(col)

    h = 1.0 if h_class == 0.0 else 1.0 - h_class_given_cluster / h_class
    c = 1.0 if h_cluster == 0.0 else 1.0 - h_cluster_given_class / h_cluster
    v = 0.0 if (h + c) == 0.0 else 2.0 * h * c / (h + c)
    return h, c, v


def instance_localization_auc(attn, instance_labels) -> float | None:
    """AUC of attention as a score for discriminative (label >= 1) instances."""
    labels = (np.asarray(instance_labels, dtype=np.int64) >= 1).astype(np.int64)
    return binary_auc(np.asarray(attn, dtype=np.float64), labels)


@dataclass
class MetricsReport:
    macro_auc: float | None
    macro_f1: float
    per_class_auc: list[float | None]
    per_class_f1: list[float]
    mean_attention_entropy: float
    mean_topk_cumulative: dict[int, float]
    v_measure: float | None = None
    instance_localization_auc: float | None = None
    n_bags: int = 0
    mean_branch_heatmap_cosine: float | None = None  # None for one branch
    loss: LossBreakdown | None = None  # mean over the bags; not in to_dict or the summary

    def to_dict(self) -> dict:
        return {
            "macro_auc": self.macro_auc,
            "macro_f1": self.macro_f1,
            "per_class_auc": self.per_class_auc,
            "per_class_f1": self.per_class_f1,
            "mean_attention_entropy": self.mean_attention_entropy,
            "mean_topk_cumulative": {str(k): v for k, v in self.mean_topk_cumulative.items()},
            "v_measure": self.v_measure,
            "instance_localization_auc": self.instance_localization_auc,
            "n_bags": self.n_bags,
            "mean_branch_heatmap_cosine": self.mean_branch_heatmap_cosine,
        }

    def summary_header(self) -> list[str]:
        cols = ["n_bags", "macro_auc", "macro_f1", "mean_attention_entropy"]
        cols += [f"top{k}_mass" for k in sorted(self.mean_topk_cumulative)]
        cols += ["v_measure", "instance_localization_auc"]
        return cols

    def summary_row(self) -> list[str]:
        def fmt(v):
            return "" if v is None else format(float(v), ".6g")

        row = [str(self.n_bags), fmt(self.macro_auc), fmt(self.macro_f1)]
        row.append(fmt(self.mean_attention_entropy))
        row += [fmt(self.mean_topk_cumulative[k]) for k in sorted(self.mean_topk_cumulative)]
        row += [fmt(self.v_measure), fmt(self.instance_localization_auc)]
        return row
