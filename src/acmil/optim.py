"""Training loop: Adam with weight decay, cosine learning-rate schedule,
best-validation model selection and per-epoch diagnostics.

Runs are pure functions of (dataset, config, seed).  Every stochastic
choice draws from a documented child stream of the run seed: stream 0
initialises parameters, stream 1 + 2e shuffles epoch e, stream 2 + 2e
drives epoch e's attention masking.  Every step updates on one bag, so
optimizer state is strictly sequential.

Validation (and evaluation in general) runs with the stochastic masking
removed; a flag exists to re-enable it for the corresponding ablation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .bags import Bag
from .data import Dataset
from .errors import ConfigError, NumericsError
from .losses import LossBreakdown, backward, diversity_loss, total_loss
from .metrics import (
    MetricsReport,
    attention_entropy,
    instance_localization_auc,
    kmeans,
    macro_auc,
    macro_f1,
    topk_cumulative,
    v_measure,
)
from .mil import StkimConfig, mba_forward
from .model import Model, ModelDims, Params, init_model
from .rng import Rng

SELECTION_METRICS = ("macro_auc", "macro_f1")

_INIT_STREAM = 0


def _shuffle_stream(epoch: int) -> int:
    return 1 + 2 * epoch


def _mask_stream(epoch: int) -> int:
    return 2 + 2 * epoch


@dataclass
class TrainConfig:
    epochs: int = 100
    lr0: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    branches: int = 5
    embed_dim: int = 64
    attn_dim: int = 128
    activation: str = "relu"
    stkim: StkimConfig = field(default_factory=lambda: StkimConfig(count=10, prob=0.6))
    selection_metric: str = "macro_auc"
    disable_diversity_loss: bool = False
    decoupled_weight_decay: bool = False
    topk_list: tuple[int, ...] = (10,)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if self.branches < 1:
            raise ConfigError("branches must be >= 1")
        if self.selection_metric not in SELECTION_METRICS:
            raise ConfigError(f"selection_metric must be one of {SELECTION_METRICS}")
        if not self.topk_list:
            raise ConfigError("topk_list must not be empty")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "lr0": self.lr0,
            "weight_decay": self.weight_decay,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "seed": self.seed,
            "branches": self.branches,
            "embed_dim": self.embed_dim,
            "attn_dim": self.attn_dim,
            "activation": self.activation,
            "stkim": self.stkim.to_dict(),
            "selection_metric": self.selection_metric,
            "disable_diversity_loss": self.disable_diversity_loss,
            "decoupled_weight_decay": self.decoupled_weight_decay,
            "topk_list": list(self.topk_list),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"train config: unknown fields {sorted(unknown)}")
        kwargs = dict(d)
        if "stkim" in kwargs:
            kwargs["stkim"] = StkimConfig.from_dict(kwargs["stkim"])
        if "topk_list" in kwargs:
            kwargs["topk_list"] = tuple(int(k) for k in kwargs["topk_list"])
        return cls(**kwargs)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: LossBreakdown
    val_loss: LossBreakdown
    val_macro_auc: float | None
    val_macro_f1: float
    val_attention_entropy: float
    val_topk: dict[int, float]


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    selected_epoch: int

    def csv_header(self) -> list[str]:
        ks = sorted(self.records[0].val_topk) if self.records else []
        return (
            ["epoch", "lr"]
            + ["train_loss_bag", "train_loss_branch", "train_loss_diversity", "train_loss_total"]
            + ["val_loss_bag", "val_loss_branch", "val_loss_diversity", "val_loss_total"]
            + ["val_macro_auc", "val_macro_f1", "val_attention_entropy"]
            + [f"val_top{k}_mass" for k in ks]
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.csv_header())

        def fmt(v):
            return "" if v is None else format(float(v), ".17g")

        for r in self.records:
            row = [str(r.epoch), fmt(r.lr)]
            row += [fmt(x) for x in (r.train_loss.bag, r.train_loss.branch,
                                     r.train_loss.diversity, r.train_loss.total)]
            row += [fmt(x) for x in (r.val_loss.bag, r.val_loss.branch,
                                     r.val_loss.diversity, r.val_loss.total)]
            row += [fmt(r.val_macro_auc), fmt(r.val_macro_f1), fmt(r.val_attention_entropy)]
            row += [fmt(r.val_topk[k]) for k in sorted(r.val_topk)]
            writer.writerow(row)
        return buf.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def cosine_lr(epoch: int, cfg: TrainConfig) -> float:
    """Half-cosine decay from lr0 toward 0 at the (virtual) end of training."""
    if not (0 <= epoch < cfg.epochs):
        raise ConfigError("epoch index out of range")
    return 0.5 * cfg.lr0 * (1.0 + float(np.cos(np.pi * epoch / cfg.epochs)))


class AdamState:
    """First/second moment vectors in the model's flat parameter layout."""

    def __init__(self, model: Model):
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)


def adam_step(
    model: Model,
    grads: Params,
    state: AdamState,
    t: int,
    lr: float,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay is L2-coupled (added to the gradient) by default; the
    decoupled variant applies it directly to the parameters instead.
    """
    if t < 1:
        raise ConfigError("adam step index starts at 1")
    b1, b2, eps, wd = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay
    p, g, m, v = model.flat, grads.flat, state.m, state.v
    if wd != 0.0 and not cfg.decoupled_weight_decay:
        g = g + wd * p
    # the textbook expressions, evaluated in place in two scratch vectors
    u = np.multiply(g, 1.0 - b1)
    m *= b1
    m += u
    np.multiply(g, 1.0 - b2, out=u)
    u *= g
    v *= b2
    v += u
    update = np.divide(m, 1.0 - b1**t, out=u)
    update *= lr
    denom = np.divide(v, 1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    if not np.all(np.isfinite(update)):
        bad = Params(model.dims, update).first_nonfinite()
        raise NumericsError(f"non-finite Adam update for parameter {bad}")
    p -= update
    if wd != 0.0 and cfg.decoupled_weight_decay:
        p -= lr * wd * p


def _selection_value(record: EpochRecord, metric: str) -> float:
    if metric == "macro_auc":
        return record.val_macro_auc if record.val_macro_auc is not None else -1.0
    return record.val_macro_f1


def _epoch_eval(
    model: Model,
    bags: list[Bag],
    cfg: TrainConfig,
) -> tuple[LossBreakdown, float | None, float, float, dict[int, float]]:
    """Validation pass with masking off; returns mean losses and metrics."""
    inert = StkimConfig(count=0, prob=0.0)
    n = len(bags)
    sums = np.zeros(4)
    probs = np.empty((n, model.dims.classes))
    labels = np.empty(n, dtype=np.int64)
    entropy_sum = 0.0
    topk_sums = {k: 0.0 for k in cfg.topk_list}
    for i, bag in enumerate(bags):
        trace = mba_forward(bag, model, inert, None, training=False)
        if trace.zeroed.any():
            raise AssertionError("masking leaked into validation")
        loss = total_loss(trace, bag.label, include_diversity=not cfg.disable_diversity_loss)
        sums += (loss.bag, loss.branch, loss.diversity, loss.total)
        probs[i] = trace.bag_probs
        labels[i] = bag.label
        entropy_sum += attention_entropy(trace.heatmap)
        for k in cfg.topk_list:
            topk_sums[k] += topk_cumulative(trace.heatmap, k)
    mean_loss = LossBreakdown(*(sums / n))
    auc, _ = macro_auc(probs, labels, model.dims.classes) if n >= 2 else (None, [])
    f1, _ = macro_f1(probs.argmax(axis=1), labels, model.dims.classes)
    return mean_loss, auc, f1, entropy_sum / n, {k: s / n for k, s in topk_sums.items()}


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[Model, TrainHistory]:
    """Train on the dataset's train split, selecting the best-validation epoch."""
    train_bags = dataset.bags_in("train")
    val_bags = dataset.bags_in("val")
    if not train_bags or not val_bags:
        raise ConfigError("dataset needs non-empty train and val splits")
    dims = ModelDims(
        feature_dim=dataset.feature_dim,
        embed_dim=cfg.embed_dim,
        attn_dim=cfg.attn_dim,
        branches=cfg.branches,
        classes=dataset.num_classes,
    )
    model = init_model(dims, Rng.stream(cfg.seed, _INIT_STREAM), cfg.activation, seed=cfg.seed)
    state = AdamState(model)
    records: list[EpochRecord] = []
    best_value = -np.inf
    best_epoch = 0
    best_model = model.copy()
    t = 0
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg)
        order = list(range(len(train_bags)))
        Rng.stream(cfg.seed, _shuffle_stream(epoch)).shuffle(order)
        mask_rng = Rng.stream(cfg.seed, _mask_stream(epoch))
        sums = np.zeros(4)
        for idx in order:
            bag = train_bags[idx]
            trace = mba_forward(bag, model, cfg.stkim, mask_rng, training=True)
            loss = total_loss(trace, bag.label, include_diversity=not cfg.disable_diversity_loss)
            grads = backward(
                trace, bag, model, include_diversity=not cfg.disable_diversity_loss
            )
            t += 1
            adam_step(model, grads, state, t, lr, cfg)
            sums += (loss.bag, loss.branch, loss.diversity, loss.total)
        train_mean = LossBreakdown(*(sums / len(train_bags)))
        val_loss, val_auc, val_f1, val_entropy, val_topk = _epoch_eval(model, val_bags, cfg)
        record = EpochRecord(
            epoch=epoch,
            lr=lr,
            train_loss=train_mean,
            val_loss=val_loss,
            val_macro_auc=val_auc,
            val_macro_f1=val_f1,
            val_attention_entropy=val_entropy,
            val_topk=val_topk,
        )
        records.append(record)
        value = _selection_value(record, cfg.selection_metric)
        if value > best_value:
            best_value = value
            best_epoch = epoch
            best_model = model.copy()
    return best_model, TrainHistory(records=records, selected_epoch=best_epoch)


def evaluate(
    model: Model,
    bags: list[Bag],
    stkim: StkimConfig | None = None,
    stkim_at_eval: bool = False,
    eval_seed: int = 0,
    topk_list: tuple[int, ...] = (10,),
    kmeans_seed: int = 0,
) -> tuple[MetricsReport, dict]:
    """Metrics report plus raw per-bag attention/embedding exports.

    Masking is removed unless ``stkim_at_eval`` re-enables it (for the
    test-time-masking ablation), in which case draws come from a stream of
    ``eval_seed``.
    """
    if not bags:
        raise ConfigError("evaluate needs at least one bag")
    cfg = stkim if stkim is not None else StkimConfig(count=0, prob=0.0)
    masking_active = stkim_at_eval or (cfg.enabled_at_eval and cfg.prob > 0.0)
    rng = Rng.stream(eval_seed, 3) if masking_active else None
    n = len(bags)
    c = model.dims.classes
    probs = np.empty((n, c))
    labels = np.empty(n, dtype=np.int64)
    embeddings = np.empty((n, model.dims.embed_dim))
    entropy_sum = 0.0
    topk_sums = {k: 0.0 for k in topk_list}
    loc_aucs: list[float] = []
    pair_cosines: list[float] = []
    attention_export: dict[str, list[float]] = {}
    embedding_export: dict[str, list[float]] = {}
    for i, bag in enumerate(bags):
        trace = mba_forward(bag, model, cfg, rng, training=stkim_at_eval)
        probs[i] = trace.bag_probs
        labels[i] = bag.label
        embeddings[i] = trace.bag_embedding
        entropy_sum += attention_entropy(trace.heatmap)
        for k in topk_list:
            topk_sums[k] += topk_cumulative(trace.heatmap, k)
        if bag.instance_labels is not None:
            auc = instance_localization_auc(trace.heatmap, bag.instance_labels)
            if auc is not None:
                loc_aucs.append(auc)
        if model.dims.branches >= 2:
            pair_cosines.append(diversity_loss(trace.attention))
        attention_export[bag.id] = trace.heatmap.tolist()
        embedding_export[bag.id] = trace.bag_embedding.tolist()

    auc, per_auc = macro_auc(probs, labels, c) if n >= 2 else (None, [None] * c)
    f1, per_f1 = macro_f1(probs.argmax(axis=1), labels, c)
    vm = None
    if n >= c and len(np.unique(labels)) >= 2:
        assignments = kmeans(embeddings, c, seed=kmeans_seed)
        _, _, vm = v_measure(assignments, labels)
    report = MetricsReport(
        macro_auc=auc,
        macro_f1=f1,
        per_class_auc=per_auc,
        per_class_f1=per_f1,
        mean_attention_entropy=entropy_sum / n,
        mean_topk_cumulative={k: s / n for k, s in topk_sums.items()},
        v_measure=vm,
        instance_localization_auc=float(np.mean(loc_aucs)) if loc_aucs else None,
        n_bags=n,
        extras={
            "mean_branch_heatmap_cosine": float(np.mean(pair_cosines))
            if pair_cosines
            else None
        },
    )
    exports = {"attention": attention_export, "embeddings": embedding_export}
    return report, exports
