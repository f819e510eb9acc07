"""Model parameters, initialisation and the text checkpoint format.

The learnable pieces are one embedding layer, M gated-attention branches
(each with its own linear classifier head) and one bag-level classifier
head.  Branch heads share nothing with each other or with the bag head.

Every tensor is a view into one contiguous float64 vector ``flat``:

    embed_w (E, D)     embed_b (E,)
    att_v (M, L, E)    att_u (M, L, E)    att_w (M, L)
    head_w (M, C, E)   head_b (M, C)
    bag_head_w (C, E)  bag_head_b (C,)

Branch tensors are stacked along a leading branch axis, and att_u follows
att_v directly, so ``att_vu`` is the (2, ML, E) stack [V; U] that scores
every branch in one batched product.  Gradients and the Adam moments share this
layout, which makes the optimizer step and model copies whole-vector
operations.

``parameters()`` lists the tensors under their per-branch names in the
checkpoint (format v1) order: embed_w, embed_b, then for each branch
att_v, att_u, att_w, head_w, head_b, then bag_head_w, bag_head_b.  Weights
initialise uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out)), biases zero,
drawn in that order from the run seed, so a model is a pure function of
(dims, activation, seed).

Checkpoints are one line of JSON (format v1) with every float at its
shortest round-trip text; the reload is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import jsonio
from .config import decode
from .errors import ConfigError, DataFormatError
from .rng import Rng

ACTIVATIONS = ("relu", "identity")
CHECKPOINT_FORMAT = "acmil-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelDims:
    feature_dim: int
    embed_dim: int
    attn_dim: int
    branches: int
    classes: int

    def __post_init__(self):
        for name in ("feature_dim", "embed_dim", "attn_dim", "branches", "classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dims.{name} must be >= 1")
        if self.classes < 2:
            raise ConfigError("dims.classes must be >= 2")


def _shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    d, e, l, m, c = dims.feature_dim, dims.embed_dim, dims.attn_dim, dims.branches, dims.classes
    return {
        "embed_w": (e, d),
        "embed_b": (e,),
        "att_vu": (2, m, l, e),
        "att_w": (m, l),
        "head_w": (m, c, e),
        "head_b": (m, c),
        "bag_head_w": (c, e),
        "bag_head_b": (c,),
    }


class Params:
    """Every trainable tensor of one model shape, as views into ``flat``.

    Used for the model itself and for its gradients.
    """

    def __init__(self, dims: ModelDims, flat: np.ndarray | None = None):
        shapes = _shapes(dims)
        ends = np.cumsum([math.prod(s) for s in shapes.values()])
        if flat is None:
            flat = np.zeros(ends[-1])
        if flat.shape != (ends[-1],) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ValueError(f"flat parameters must be a contiguous float64 ({ends[-1]},) vector")
        self.dims = dims
        self.flat = flat
        views = [c.reshape(s) for c, s in zip(np.split(flat, ends[:-1]), shapes.values())]
        (self.embed_w, self.embed_b, vu, self.att_w, self.head_w, self.head_b,
         self.bag_head_w, self.bag_head_b) = views
        self.att_v, self.att_u = vu
        self.att_vu = vu.reshape(2, -1, dims.embed_dim)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Every tensor under its format-v1 name, in v1 order (views)."""
        out = [("embed_w", self.embed_w), ("embed_b", self.embed_b)]
        for i in range(self.dims.branches):
            out += [
                (f"branch{i}.att_v", self.att_v[i]),
                (f"branch{i}.att_u", self.att_u[i]),
                (f"branch{i}.att_w", self.att_w[i]),
                (f"branch{i}.head_w", self.head_w[i]),
                (f"branch{i}.head_b", self.head_b[i]),
            ]
        out += [("bag_head_w", self.bag_head_w), ("bag_head_b", self.bag_head_b)]
        return out

    def first_nonfinite(self) -> str | None:
        """v1 name of the first tensor holding a NaN or Inf, or None."""
        if np.all(np.isfinite(self.flat)):
            return None
        return next(name for name, p in self.parameters() if not np.all(np.isfinite(p)))


class Model(Params):
    def __init__(
        self, dims: ModelDims, activation: str, flat: np.ndarray | None = None, seed: int = 0
    ):
        super().__init__(dims, flat)
        self.activation = activation
        self.seed = seed

    def copy(self) -> "Model":
        return Model(self.dims, self.activation, self.flat.copy(), self.seed)


def init_model(dims: ModelDims, rng: Rng, activation: str = "relu", seed: int = 0) -> Model:
    """Fresh model with fan-balanced uniform weights and zero biases."""
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}; choose from {ACTIVATIONS}")
    model = Model(dims, activation, seed=seed)
    weights = [p for name, p in model.parameters() if not name.endswith("_b")]
    # one block draw, split over the weights in v1 order; low + (high - low) * u
    # is uniform()'s own formula, so each value equals a per-tensor draw
    u = rng.uniform_array(sum(p.size for p in weights))
    start = 0
    for p in weights:
        # att_w is a (L, 1) score column stored flat
        rows, cols = p.shape if p.ndim == 2 else (p.size, 1)
        s = np.sqrt(6.0 / (rows + cols))
        low, high = -s, s
        p[...] = (low + (high - low) * u[start : start + p.size]).reshape(p.shape)
        start += p.size
    return model


def save_checkpoint(model: Model, path, config: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "dims": asdict(model.dims),
        "activation": model.activation,
        "seed": model.seed,
        "config": config if config is not None else {},
        "params": dict(model.parameters()),
    }
    jsonio.dump(doc, path)


def load_checkpoint(path) -> tuple[Model, dict]:
    try:
        doc = jsonio.load(path)
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise DataFormatError(f"{path}: not a checkpoint file")
        if doc.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version")
        dd = doc["dims"]
        dims = ModelDims(**{f.name: decode(dd[f.name], int, f"dims.{f.name}")
                            for f in fields(ModelDims)})
        model = Model(dims, str(doc["activation"]),
                      seed=decode(doc.get("seed", 0), int, "seed"))
        if model.activation not in ACTIVATIONS:
            raise DataFormatError(f"{path}: unknown activation {model.activation!r}")
        params = doc["params"]
        for name, p in model.parameters():
            if name not in params:
                raise DataFormatError(f"{path}: missing parameter {name}")
            a = np.asarray(params[name], dtype=np.float64)
            if a.shape != p.shape:
                raise DataFormatError(
                    f"{path}: parameter {name} has shape {a.shape}, want {p.shape}"
                )
            if not np.all(np.isfinite(a)):
                raise DataFormatError(f"{path}: parameter {name} contains non-finite values")
            p[...] = a
        config = doc.get("config", {})
        if not isinstance(config, dict):
            raise DataFormatError(f"{path}: checkpoint config must be an object")
        return model, config
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        kind = type(exc).__name__
        raise DataFormatError(f"{path}: malformed checkpoint ({kind}: {exc})") from exc
