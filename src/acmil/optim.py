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

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jsonio
from .bags import Bag
from .config import Config
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
from .mil import StkimConfig, gate_block_values, mba_forward
from .model import ACTIVATIONS, Model, ModelDims, Params, init_model
from .numerics import all_finite, one_blas_thread
from .rng import Rng

SELECTION_METRICS = ("macro_auc", "macro_f1")
# 4 MiB of gates: an evaluate call whose largest bag has more gates in all M
# branches (over 409 instances at M=5, L=128) scores its bags in worker threads
EVAL_GATE_VALUES = 2**19

_INIT_STREAM = 0


def _shuffle_stream(epoch: int) -> int:
    return 1 + 2 * epoch


def _mask_stream(epoch: int) -> int:
    return 2 + 2 * epoch


@dataclass
class TrainConfig(Config):
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
        for name in ("branches", "embed_dim", "attn_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if self.selection_metric not in SELECTION_METRICS:
            raise ConfigError(f"selection_metric must be one of {SELECTION_METRICS}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be >= 0")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")
        check_topk_list(self.topk_list)


def check_topk_list(topk_list: tuple[int, ...], path: str = "topk_list") -> tuple[int, ...]:
    """``topk_list`` itself, after checking it is non-empty with distinct entries >= 1."""
    if not topk_list:
        raise ConfigError(f"{path} must not be empty")
    if min(topk_list) < 1:
        raise ConfigError(f"{path} entries must be >= 1")
    if len(set(topk_list)) < len(topk_list):
        raise ConfigError(f"{path} entries must be distinct, got {list(topk_list)}")
    return topk_list


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
        def fmt(v):
            return "" if v is None else format(float(v), ".17g")

        rows = [self.csv_header()]
        for r in self.records:
            row = [str(r.epoch), fmt(r.lr)]
            row += [fmt(x) for x in (r.train_loss.bag, r.train_loss.branch,
                                     r.train_loss.diversity, r.train_loss.total)]
            row += [fmt(x) for x in (r.val_loss.bag, r.val_loss.branch,
                                     r.val_loss.diversity, r.val_loss.total)]
            row += [fmt(r.val_macro_auc), fmt(r.val_macro_f1), fmt(r.val_attention_entropy)]
            row += [fmt(r.val_topk[k]) for k in sorted(r.val_topk)]
            rows.append(row)
        return jsonio.csv_text(rows)

    def save_csv(self, path) -> None:
        jsonio.write_text(path, self.to_csv())


def cosine_lr(epoch: int, cfg: TrainConfig) -> float:
    """Half-cosine decay from lr0 toward 0 at the (virtual) end of training."""
    if not (0 <= epoch < cfg.epochs):
        raise ConfigError("epoch index out of range")
    return 0.5 * cfg.lr0 * (1.0 + float(np.cos(np.pi * epoch / cfg.epochs)))


# 128 KiB per vector: a block of the parameters, the gradient, both moments,
# the update and the two scratch rows (768 KiB) stays in a core's L2 cache
ADAM_BLOCK = 2**14


class AdamState:
    """First/second moment vectors in the model's flat parameter layout, plus
    the step's update vector and its block scratch, held for the run."""

    def __init__(self, model: Model):
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)
        self.update = np.empty_like(model.flat)
        self.scratch = np.empty((2, min(ADAM_BLOCK, model.flat.size)))


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
    decoupled variant applies it directly to the parameters instead.  The
    textbook expressions are evaluated in blocks of ``ADAM_BLOCK`` values in
    the state's scratch, element by element in the same order as on whole
    vectors; no parameter changes unless the whole update is finite.
    """
    if t < 1:
        raise ConfigError("adam step index starts at 1")
    b1, b2, eps, wd = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay
    coupled = wd != 0.0 and not cfg.decoupled_weight_decay
    decoupled = wd != 0.0 and cfg.decoupled_weight_decay
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    p, update = model.flat, state.update
    for lo in range(0, p.size, ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        g, m, v, upd = grads.flat[lo:hi], state.m[lo:hi], state.v[lo:hi], update[lo:hi]
        u, w = state.scratch[:, :len(g)]
        if coupled:  # g + wd * p
            np.multiply(p[lo:hi], wd, out=w)
            w += g
            g = w
        np.multiply(g, 1.0 - b1, out=u)
        m *= b1
        m += u
        np.multiply(g, 1.0 - b2, out=u)
        u *= g
        v *= b2
        v += u
        np.divide(m, c1, out=upd)
        upd *= lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += eps
        upd /= u
    if not all_finite(update):
        bad = Params(model.dims, update).first_nonfinite()
        raise NumericsError(f"non-finite Adam update for parameter {bad}")
    if not decoupled:
        p -= update
        return
    for lo in range(0, p.size, ADAM_BLOCK):
        pb = p[lo:lo + ADAM_BLOCK]
        u = state.scratch[0, :len(pb)]
        pb -= update[lo:lo + ADAM_BLOCK]
        np.multiply(pb, lr * wd, out=u)  # (lr * wd) * p
        pb -= u


def _selection_value(record: EpochRecord, metric: str) -> float:
    if metric == "macro_auc":
        return record.val_macro_auc if record.val_macro_auc is not None else -1.0
    return record.val_macro_f1


@np.errstate(all="ignore")  # the finiteness checks raise NumericsError instead
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
    grads = Params(dims)
    records: list[EpochRecord] = []
    best_value = -np.inf
    best_epoch = 0
    best_model = model.copy()
    # one gate buffer: all rows of the largest training bag, which backward needs,
    # and at least the block that each epoch's validation scores in
    rows = max(bag.n_instances for bag in train_bags)
    workspace = np.empty(max(rows * 2 * cfg.branches * cfg.attn_dim, gate_block_values(model)))
    t = 0
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg)
        order = list(range(len(train_bags)))
        Rng.stream(cfg.seed, _shuffle_stream(epoch)).shuffle(order)
        mask_rng = Rng.stream(cfg.seed, _mask_stream(epoch))
        sums = np.zeros(4)
        for idx in order:
            bag = train_bags[idx]
            trace = mba_forward(bag, model, cfg.stkim, mask_rng, training=True,
                                workspace=workspace)
            loss = total_loss(trace, bag.label, include_diversity=not cfg.disable_diversity_loss)
            backward(trace, bag, model, include_diversity=not cfg.disable_diversity_loss,
                     out=grads)
            t += 1
            adam_step(model, grads, state, t, lr, cfg)
            sums += (loss.bag, loss.branch, loss.diversity, loss.total)
        train_mean = LossBreakdown(*(sums / len(train_bags)))
        val, _ = evaluate(model, val_bags, topk_list=cfg.topk_list,
                          include_diversity=not cfg.disable_diversity_loss, workspace=workspace)
        record = EpochRecord(
            epoch=epoch,
            lr=lr,
            train_loss=train_mean,
            val_loss=val.loss,
            val_macro_auc=val.macro_auc,
            val_macro_f1=val.macro_f1,
            val_attention_entropy=val.mean_attention_entropy,
            val_topk=val.mean_topk_cumulative,
        )
        records.append(record)
        value = _selection_value(record, cfg.selection_metric)
        if value > best_value:
            best_value = value
            best_epoch = epoch
            best_model = model.copy()
    return best_model, TrainHistory(records=records, selected_epoch=best_epoch)


class _BagScore(NamedTuple):
    """What ``evaluate`` keeps of one bag's forward pass; never the trace,
    which holds the bag's N×E embeddings."""

    probs: np.ndarray  # (C,)
    embedding: np.ndarray  # (E,)
    heatmap: np.ndarray  # (N,)
    loss: LossBreakdown
    entropy: float
    topk: list[float]  # one per entry of the call's topk_list
    localization_auc: float | None
    branch_cosine: float | None  # None for one branch


# numpy's error state is per thread: a worker thread does not inherit the caller's
@np.errstate(all="ignore")  # the finiteness checks raise NumericsError instead
def _score_bag(bag: Bag, model: Model, cfg: StkimConfig, rng: Rng | None, training: bool,
               topk_list: tuple[int, ...], include_diversity: bool,
               workspace: np.ndarray) -> _BagScore:
    """One bag's forward pass, in row blocks that fit ``workspace``, and its per-bag
    metrics; ``rng`` is None unless masking is active."""
    trace = mba_forward(bag, model, cfg, rng, training=training, workspace=workspace)
    if rng is None and trace.zeroed.any():
        raise AssertionError("masking leaked into validation")
    loss = total_loss(trace, bag.label, include_diversity=include_diversity)
    loc_auc = None
    if bag.instance_labels is not None:
        loc_auc = instance_localization_auc(trace.heatmap, bag.instance_labels)
    cosine = None
    if model.dims.branches >= 2:  # the diversity loss is the mean pairwise cosine
        cosine = loss.diversity if include_diversity else diversity_loss(trace.attention)
    return _BagScore(trace.bag_probs, trace.bag_embedding, trace.heatmap, loss,
                     attention_entropy(trace.heatmap),
                     [topk_cumulative(trace.heatmap, k) for k in topk_list], loc_auc, cosine)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@np.errstate(all="ignore")  # the finiteness checks raise NumericsError instead
def evaluate(
    model: Model,
    bags: list[Bag],
    stkim: StkimConfig | None = None,
    stkim_at_eval: bool = False,
    eval_seed: int = 0,
    topk_list: tuple[int, ...] = (10,),
    include_diversity: bool = True,
    workspace: np.ndarray | None = None,
) -> tuple[MetricsReport, dict]:
    """Metrics report plus raw per-bag attention/embedding exports (arrays by bag id).

    Masking is removed unless ``stkim_at_eval`` re-enables it (for the
    test-time-masking ablation), in which case draws come from a stream of
    ``eval_seed``.  The report's ``loss`` is the mean loss breakdown, with
    the diversity term only if ``include_diversity``; training validates
    each epoch through this pass.  Every bag is scored in blocks of rows
    whose gates fit a buffer of ``mil.gate_block_values`` values, whatever
    bags share the call.

    A call whose largest bag has more than ``EVAL_GATE_VALUES`` gates in all
    M branches scores its bags in one thread per available CPU, each with its
    own gate buffer, while OpenBLAS is held at one thread; if OpenBLAS cannot
    be reached, or masking is active (one random stream drawn in bag order),
    it scores them in the calling thread.  The results are summed in bag
    order either way, so they are the same.  A flat float64 ``workspace`` of
    at least that buffer's size serves the calling thread instead of a new
    buffer; it changes no result.
    """
    if not bags:
        raise ConfigError("evaluate needs at least one bag")
    check_topk_list(topk_list)
    ids = set()
    for bag in bags:
        if bag.id in ids:  # the exports are keyed by bag id
            raise ConfigError(f"bag id {bag.id!r} occurs more than once")
        ids.add(bag.id)
        if bag.label >= model.dims.classes:
            raise ConfigError(f"bag {bag.id!r} has label {bag.label}, so at least "
                              f"{bag.label + 1} classes; the model has {model.dims.classes}")
    cfg = stkim if stkim is not None else StkimConfig(count=0, prob=0.0)
    masking_active = stkim_at_eval or (cfg.enabled_at_eval and cfg.prob > 0.0)
    rng = Rng.stream(eval_seed, 3) if masking_active else None
    n = len(bags)
    c = model.dims.classes
    need = gate_block_values(model)
    if workspace is not None and (workspace.dtype != np.float64 or workspace.size < need):
        raise ValueError(f"workspace holds {workspace.size} {workspace.dtype} values, "
                         f"evaluation needs {need} float64")
    dims = model.dims
    largest = 2 * dims.branches * dims.attn_dim * max(bag.n_instances for bag in bags)
    threads = 1 if masking_active or largest <= EVAL_GATE_VALUES else min(_cpus(), n)
    with one_blas_thread() if threads > 1 else nullcontext(False) as pinned:
        workers = threads if pinned else 1
        # at most `workers` bags are scored at once, so a buffer is always spare
        spare = [np.empty(need) for _ in range(workers - (workspace is not None))]
        if workspace is not None:
            spare.append(workspace[:need])

        def score(bag: Bag) -> _BagScore:
            ws = spare.pop()
            try:
                return _score_bag(bag, model, cfg, rng, stkim_at_eval, topk_list,
                                  include_diversity, ws)
            finally:
                spare.append(ws)

        if workers == 1:
            scored = list(map(score, bags))
        else:
            from concurrent.futures import ThreadPoolExecutor

            # map returns in bag order, so the first failing bag's error is raised
            with ThreadPoolExecutor(workers) as pool:
                scored = list(pool.map(score, bags))

    # the sums run in bag order, so the bits do not depend on the workers
    loss_sums = np.zeros(4)
    entropy_sum = 0.0
    topk_sums = {k: 0.0 for k in topk_list}
    for s in scored:
        loss_sums += (s.loss.bag, s.loss.branch, s.loss.diversity, s.loss.total)
        entropy_sum += s.entropy
        for k, mass in zip(topk_list, s.topk):
            topk_sums[k] += mass
    loc_aucs = [s.localization_auc for s in scored if s.localization_auc is not None]
    pair_cosines = [s.branch_cosine for s in scored if s.branch_cosine is not None]
    probs = np.array([s.probs for s in scored])
    labels = np.array([bag.label for bag in bags], dtype=np.int64)
    embeddings = np.array([s.embedding for s in scored])

    auc, per_auc = macro_auc(probs, labels, c) if n >= 2 else (None, [None] * c)
    f1, per_f1 = macro_f1(probs.argmax(axis=1), labels, c)
    vm = None
    if n >= c and len(np.unique(labels)) >= 2:
        assignments = kmeans(embeddings, c, seed=0)
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
        loss=LossBreakdown(*(loss_sums / n)),
        mean_branch_heatmap_cosine=float(np.mean(pair_cosines)) if pair_cosines else None,
    )
    exports = {"attention": {bag.id: s.heatmap for bag, s in zip(bags, scored)},
               "embeddings": {bag.id: s.embedding for bag, s in zip(bags, scored)}}
    return report, exports
