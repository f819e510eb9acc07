import hashlib
import math

import pytest

from acmil import jsonio
from acmil.data import SyntheticConfig
from acmil.errors import ConfigError
from acmil.mil import StkimConfig
from acmil.optim import TrainConfig


@pytest.mark.parametrize("cfg, digest", [
    (TrainConfig(), "2954f521ed259818e7940f841573a5d804ea3ba0a02cba53e147de443cd87910"),
    (SyntheticConfig(), "4e9aeb9419d94d91e4cfe507e86055ec46469aa7ed42bf88c46019a355a72e6d"),
    (StkimConfig(count=None, fraction=0.01, prob=0.5),
     "79c0afa2cbb52cb3887f644f1a783246c4d18659540dc363c1c7738b6fa776c3"),
], ids=["train", "synthetic", "stkim-fraction"])
def test_to_dict_json_bytes_are_pinned(cfg, digest):
    # digests of the compact standard-library JSON of each to_dict, taken
    # before the JSON writer changed (the dicts themselves are unchanged
    # since the shared codec replaced the hand-written to_dict methods)
    assert hashlib.sha256(jsonio.dumps(cfg.to_dict()).encode()).hexdigest() == digest


@pytest.mark.parametrize("cfg", [
    TrainConfig(epochs=3, lr0=2e-3, topk_list=(1, 5), stkim=StkimConfig(count=None, fraction=0.1)),
    SyntheticConfig(cluster_std=0.5, seed=7),
    StkimConfig(count=4, prob=0.25, enabled_at_eval=True),
])
def test_from_dict_inverts_to_dict(cfg):
    assert type(cfg).from_dict(cfg.to_dict()) == cfg


def test_from_dict_converts_ints_and_lists():
    cfg = TrainConfig.from_dict({"lr0": 1, "topk_list": [3, 1], "stkim": {"prob": 1}})
    assert type(cfg.lr0) is float and cfg.lr0 == 1.0
    assert cfg.topk_list == (3, 1)
    assert type(cfg.stkim.prob) is float


def test_stkim_fraction_without_count_means_no_count():
    assert StkimConfig.from_dict({"fraction": 0.05}).count is None
    assert StkimConfig.from_dict({"prob": 0.8}).count == 10


@pytest.mark.parametrize("doc, path", [
    ([1], "train"),
    ({"epochs": 1, "epoch": 2}, "train.epoch"),
    ({"stkim": {"cnt": 3}}, "train.stkim.cnt"),
    ({"stkim": [3]}, "train.stkim"),
    ({"epochs": "3"}, "train.epochs"),
    ({"epochs": 2.0}, "train.epochs"),
    ({"branches": True}, "train.branches"),
    ({"lr0": False}, "train.lr0"),
    ({"lr0": math.nan}, "train.lr0"),
    ({"weight_decay": math.inf}, "train.weight_decay"),
    ({"stkim": {"count": None, "fraction": "0.1"}}, "train.stkim.fraction"),
    ({"topk_list": 10}, "train.topk_list"),
    ({"topk_list": [10, "5"]}, "train.topk_list[1]"),
    ({"activation": 1}, "train.activation"),
    ({"disable_diversity_loss": 0}, "train.disable_diversity_loss"),
])
def test_from_dict_names_the_bad_path(doc, path):
    with pytest.raises(ConfigError) as err:
        TrainConfig.from_dict(doc, "train")
    assert str(err.value).startswith(path + ":")


@pytest.mark.parametrize("field, value", [
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("weight_decay", -1e-4),
    ("adam_eps", 0.0), ("topk_list", (0,)), ("topk_list", (10, -1)), ("topk_list", (10, 10)),
])
def test_train_config_range_checks(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})
