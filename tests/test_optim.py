import math

import numpy as np
import pytest

from acmil.bags import Bag
from acmil.data import Dataset, SyntheticConfig, generate_synthetic, split_dataset
from acmil.errors import ConfigError
from acmil.mil import StkimConfig
from acmil.model import ModelDims, Params, init_model
from acmil.optim import AdamState, TrainConfig, adam_step, cosine_lr, evaluate, train
from acmil.rng import Rng


def tiny_dataset(seed=0, bags_per_class=8):
    cfg = SyntheticConfig(
        feature_dim=6,
        patterns_per_class=2,
        background_patterns=2,
        bags_per_class=bags_per_class,
        instances_min=8,
        instances_max=16,
        seed=seed,
    )
    return split_dataset(generate_synthetic(cfg), (0.5, 0.25, 0.25), seed)


def quick_config(**overrides):
    base = dict(epochs=3, seed=0, branches=2, embed_dim=6, attn_dim=6,
                stkim=StkimConfig(count=3, prob=0.5))
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------- schedule


def test_cosine_lr_endpoints():
    cfg = TrainConfig(epochs=100, lr0=1e-4)
    assert cosine_lr(0, cfg) == pytest.approx(1e-4, abs=0.0)
    assert cosine_lr(50, cfg) == pytest.approx(5e-5, abs=1e-20)


def test_cosine_lr_hand_value():
    cfg = TrainConfig(epochs=100, lr0=1e-4)
    expected = 0.5 * 1e-4 * (1.0 + math.cos(math.pi / 4))
    assert cosine_lr(25, cfg) == pytest.approx(expected, abs=1e-20)
    assert expected == pytest.approx(8.5355e-5, abs=1e-9)


def test_cosine_lr_non_increasing():
    cfg = TrainConfig(epochs=60, lr0=3e-4)
    lrs = [cosine_lr(e, cfg) for e in range(60)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    with pytest.raises(ConfigError):
        cosine_lr(60, cfg)


# ---------------------------------------------------------------- adam


def make_model(seed=0):
    dims = ModelDims(feature_dim=4, embed_dim=3, attn_dim=3, branches=2, classes=2)
    return init_model(dims, Rng.stream(seed, 0), seed=seed)


def zero_grads(model):
    return Params(model.dims)


def test_adam_zero_gradient_no_decay_keeps_parameters():
    model = make_model()
    before = {name: p.copy() for name, p in model.parameters()}
    cfg = TrainConfig(weight_decay=0.0)
    adam_step(model, zero_grads(model), AdamState(model), t=1, lr=1e-3, cfg=cfg)
    for name, p in model.parameters():
        assert np.array_equal(p, before[name])


def test_adam_first_step_unit_gradient():
    model = make_model()
    before = {name: p.copy() for name, p in model.parameters()}
    grads = Params(model.dims, np.ones_like(model.flat))
    cfg = TrainConfig(weight_decay=0.0)
    adam_step(model, grads, AdamState(model), t=1, lr=1e-3, cfg=cfg)
    # bias correction makes m_hat = 1 and sqrt(v_hat) = 1 at t = 1
    expected_delta = -1e-3 * 1.0 / (1.0 + 1e-8)
    for name, p in model.parameters():
        assert np.allclose(p - before[name], expected_delta, rtol=1e-12)


def test_adam_decay_only_step():
    model = make_model()
    model.embed_w[:] = 1.0
    cfg = TrainConfig(weight_decay=0.1)
    adam_step(model, zero_grads(model), AdamState(model), t=1, lr=1e-3, cfg=cfg)
    expected = 1.0 - 1e-3 * 0.1 / (0.1 + 1e-8)
    assert np.allclose(model.embed_w, expected, rtol=1e-12)
    assert expected == pytest.approx(0.999, abs=1e-6)


def test_adam_moments_stay_finite_and_shaped():
    model = make_model()
    state = AdamState(model)
    cfg = TrainConfig()
    rng = Rng(3)
    for t in range(1, 6):
        grads = Params(model.dims, rng.normal_array(model.flat.shape))
        adam_step(model, grads, state, t=t, lr=1e-3, cfg=cfg)
    assert state.m.shape == state.v.shape == model.flat.shape
    assert np.all(np.isfinite(state.m))
    assert np.all(np.isfinite(state.v))


# ---------------------------------------------------------------- training


def test_single_bag_memorization():
    bag = Bag(id="solo", instances=Rng(0).normal_array((10, 6)), label=1)
    val = Bag(id="solo-val", instances=bag.instances.copy(), label=1)
    ds = Dataset(
        feature_dim=6,
        num_classes=2,
        bags=[bag, val],
        split_of={"solo": "train", "solo-val": "val"},
    )
    cfg = TrainConfig(
        epochs=200,
        lr0=0.02,
        seed=0,
        branches=1,
        stkim=StkimConfig(count=10, prob=0.0),
        embed_dim=8,
        attn_dim=8,
    )
    _, history = train(ds, cfg)
    assert history.records[-1].train_loss.total < 0.01


def test_one_epoch_history():
    ds = tiny_dataset()
    _, history = train(ds, quick_config(epochs=1))
    assert len(history.records) == 1
    assert history.selected_epoch == 0


def test_training_is_deterministic(tmp_path):
    ds = tiny_dataset()
    cfg = quick_config(epochs=3)
    model_a, hist_a = train(ds, cfg)
    model_b, hist_b = train(ds, cfg)
    assert hist_a.to_csv() == hist_b.to_csv()
    for (_, a), (_, b) in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(a, b)


def test_training_full_masking_probability_does_not_crash():
    ds = tiny_dataset()
    cfg = quick_config(stkim=StkimConfig(count=50, prob=1.0))
    _, history = train(ds, cfg)
    assert len(history.records) == cfg.epochs
    assert all(np.isfinite(r.train_loss.total) for r in history.records)


def test_train_requires_splits():
    ds = generate_synthetic(
        SyntheticConfig(feature_dim=6, bags_per_class=4, instances_min=5, instances_max=8)
    )
    with pytest.raises(ConfigError):
        train(ds, quick_config())


def test_selection_picks_best_validation_epoch():
    ds = tiny_dataset(seed=3)
    _, history = train(ds, quick_config(epochs=4))
    values = [r.val_macro_auc if r.val_macro_auc is not None else -1.0 for r in history.records]
    best = max(values)
    assert values[history.selected_epoch] == best
    assert history.selected_epoch == values.index(best)  # ties break earliest


def test_history_csv_layout():
    ds = tiny_dataset()
    _, history = train(ds, quick_config(epochs=2, topk_list=(5, 10)))
    text = history.to_csv()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "epoch"
    assert "val_top5_mass" in header and "val_top10_mass" in header


# ---------------------------------------------------------------- evaluate


def test_evaluate_is_deterministic():
    ds = tiny_dataset()
    model, _ = train(ds, quick_config(epochs=2))
    test_bags = ds.bags_in("test")
    rep_a, exp_a = evaluate(model, test_bags)
    rep_b, exp_b = evaluate(model, test_bags)
    assert rep_a.to_dict() == rep_b.to_dict()
    assert exp_a == exp_b


def test_evaluate_attention_sums_to_one():
    ds = tiny_dataset()
    model, _ = train(ds, quick_config(epochs=2))
    _, exports = evaluate(model, ds.bags_in("test"))
    for attn in exports["attention"].values():
        assert abs(sum(attn) - 1.0) < 1e-9


def test_evaluate_uniform_model_has_half_auc():
    ds = tiny_dataset()
    dims = ModelDims(feature_dim=6, embed_dim=4, attn_dim=4, branches=1, classes=2)
    model = init_model(dims, Rng.stream(0, 0))
    model.bag_head_w[:] = 0.0
    model.bag_head_b[:] = 0.0
    report, _ = evaluate(model, ds.bags)
    assert report.macro_auc == pytest.approx(0.5, abs=1e-12)


def test_evaluate_stkim_at_eval_changes_attention_only_when_masking_possible():
    ds = tiny_dataset()
    cfg = quick_config(epochs=2)
    model, _ = train(ds, cfg)
    bags = ds.bags_in("test")
    base, _ = evaluate(model, bags, stkim=cfg.stkim)
    # p = 0 config: masking enabled at eval is still the identity
    p0 = StkimConfig(count=3, prob=0.0)
    same, _ = evaluate(model, bags, stkim=p0, stkim_at_eval=True)
    assert same.to_dict() == base.to_dict()
    masked, _ = evaluate(model, bags, stkim=cfg.stkim, stkim_at_eval=True, eval_seed=1)
    assert masked.mean_attention_entropy != base.mean_attention_entropy


def test_evaluate_honors_enabled_at_eval_config():
    ds = tiny_dataset()
    cfg = quick_config(epochs=2)
    model, _ = train(ds, cfg)
    bags = ds.bags_in("test")
    base, _ = evaluate(model, bags, stkim=cfg.stkim)
    persistent = StkimConfig(count=3, prob=0.5, enabled_at_eval=True)
    masked, _ = evaluate(model, bags, stkim=persistent, eval_seed=5)
    assert masked.mean_attention_entropy != base.mean_attention_entropy
    again, _ = evaluate(model, bags, stkim=persistent, eval_seed=5)
    assert again.to_dict() == masked.to_dict()


def test_evaluate_reports_localization_and_vmeasure():
    ds = tiny_dataset()
    model, _ = train(ds, quick_config(epochs=2))
    report, _ = evaluate(model, ds.bags_in("test"))
    assert report.instance_localization_auc is not None
    assert 0.0 <= report.instance_localization_auc <= 1.0
    assert report.v_measure is not None
    assert 0.0 <= report.v_measure <= 1.0
    assert report.n_bags == len(ds.bags_in("test"))
