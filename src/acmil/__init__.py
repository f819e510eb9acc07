"""Multiple-instance learning with attention-challenging regularisation.

A bag of instance features is embedded, pooled by gated attention and
classified.  Two additions fight attention over-concentration: several
attention branches trained with a semantic loss per branch and a pairwise
heatmap-diversity penalty, and stochastic masking of the top-k attention
values during training.  Everything runs on numpy with hand-derived
gradients; runs are bit-reproducible from a seed.
"""

from .bags import Bag
from .data import (
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import (
    AcmilError,
    ConfigError,
    DataFormatError,
    GenerationError,
    NumericsError,
)
from .gradcheck import check_gradients, run_suite
from .losses import (
    LossBreakdown,
    backward,
    bag_loss,
    branch_loss,
    diversity_loss,
    total_loss,
)
from .metrics import (
    MetricsReport,
    attention_entropy,
    binary_auc,
    instance_localization_auc,
    kmeans,
    macro_auc,
    macro_f1,
    topk_cumulative,
    v_measure,
)
from .mil import (
    ForwardTrace,
    StkimConfig,
    mba_forward,
    pooling_forward,
    stkim_mask,
)
from .model import (
    Model,
    ModelDims,
    Params,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import finite_diff_check, softmax, stable_argsort_desc
from .optim import AdamState, TrainConfig, TrainHistory, adam_step, cosine_lr, evaluate, train
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "AcmilError",
    "AdamState",
    "Bag",
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "ForwardTrace",
    "GenerationError",
    "LossBreakdown",
    "MetricsReport",
    "Model",
    "ModelDims",
    "NumericsError",
    "Params",
    "Rng",
    "StkimConfig",
    "SyntheticConfig",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "attention_entropy",
    "backward",
    "bag_loss",
    "binary_auc",
    "branch_loss",
    "check_gradients",
    "cosine_lr",
    "diversity_loss",
    "evaluate",
    "finite_diff_check",
    "generate_synthetic",
    "init_model",
    "instance_localization_auc",
    "kmeans",
    "load_checkpoint",
    "load_dataset",
    "macro_auc",
    "macro_f1",
    "mba_forward",
    "pooling_forward",
    "run_suite",
    "save_checkpoint",
    "save_dataset",
    "softmax",
    "split_dataset",
    "stable_argsort_desc",
    "stkim_mask",
    "topk_cumulative",
    "total_loss",
    "train",
    "v_measure",
]
