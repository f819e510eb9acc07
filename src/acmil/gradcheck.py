"""End-to-end gradient verification on random tiny problems.

Builds a small random model and bag, runs the forward pass once to fix the
stochastic mask, and compares the analytic gradients of the total loss
against central differences.  The masks recorded in the trace are replayed
verbatim for every perturbed evaluation, so the objective is smooth at the
checked point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bags import Bag
from .losses import backward, total_loss
from .mil import StkimConfig, mba_forward
from .model import Model, ModelDims, init_model
from .numerics import finite_diff_check
from .rng import Rng

TINY_DIMS = ModelDims(feature_dim=8, embed_dim=4, attn_dim=4, branches=3, classes=3)
TINY_INSTANCES = 6
ERROR_BOUND = 1e-5


@dataclass
class GradCheckResult:
    seed: int
    mask_prob: float
    max_error: float


def random_problem(
    seed: int, dims: ModelDims, n_instances: int
) -> tuple[Model, Bag]:
    rng = Rng.stream(seed, 0)
    model = init_model(dims, rng, activation="relu", seed=seed)
    feat_rng = Rng.stream(seed, 1)
    features = feat_rng.normal_array((n_instances, dims.feature_dim))
    label = feat_rng.integers(dims.classes)
    bag = Bag(id=f"gradcheck-{seed}", instances=features, label=label)
    return model, bag


def check_gradients(
    seed: int,
    dims: ModelDims = TINY_DIMS,
    n_instances: int = TINY_INSTANCES,
    mask_prob: float = 0.6,
    mask_count: int = 2,
    eps: float = 1e-4,
) -> float:
    """Max relative gradient error of the total loss for one random problem."""
    model, bag = random_problem(seed, dims, n_instances)
    stkim = StkimConfig(count=mask_count, prob=mask_prob)
    mask_rng = Rng.stream(seed, 2)
    trace = mba_forward(bag, model, stkim, mask_rng, training=True)
    frozen = trace.zeroed.copy()
    grads = backward(trace, bag, model)

    def objective() -> float:
        replay = mba_forward(bag, model, stkim, None, training=True, frozen_masks=frozen)
        return total_loss(replay, bag.label).total

    return finite_diff_check(objective, [model.flat], [grads.flat], eps)


def run_suite(
    seeds,
    dims: ModelDims = TINY_DIMS,
    n_instances: int = TINY_INSTANCES,
    probs=(0.0, 0.6),
    eps: float = 1e-4,
) -> list[GradCheckResult]:
    results = []
    for seed in seeds:
        for p in probs:
            err = check_gradients(
                seed, dims=dims, n_instances=n_instances, mask_prob=p, eps=eps
            )
            results.append(GradCheckResult(seed=seed, mask_prob=p, max_error=err))
    return results


def max_suite_error(results: list[GradCheckResult]) -> float:
    return max(r.max_error for r in results) if results else np.inf
