import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import acmil
from acmil import jsonio, numerics, optim
from acmil.bags import Bag
from acmil.data import Dataset, SyntheticConfig, generate_synthetic, split_dataset
from acmil.errors import ConfigError, NumericsError
from acmil.mil import StkimConfig, gate_block_values, mba_forward
from acmil.model import ModelDims, Params, init_model
from acmil.optim import (EVAL_GATE_VALUES, AdamState, TrainConfig, adam_step, cosine_lr,
                         evaluate, train)
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


def test_adam_refuses_a_non_finite_update_and_only_that():
    model = make_model()
    cfg = TrainConfig(weight_decay=0.0)
    # every update is about -1e308: finite, though their sum is not
    adam_step(model, Params(model.dims, np.ones_like(model.flat)), AdamState(model), t=1,
              lr=1e308, cfg=cfg)
    assert np.all(np.isfinite(model.flat))
    grads = Params(model.dims, np.ones_like(model.flat))
    grads.bag_head_b[0] = np.nan
    before = model.flat.copy()
    with pytest.raises(NumericsError, match="parameter bag_head_b"):
        adam_step(model, grads, AdamState(model), t=1, lr=1e-3, cfg=cfg)
    assert np.array_equal(model.flat, before)


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



def textbook_adam(p, g, m, v, t, lr, cfg):
    """One whole-vector Adam step: the new (p, m, v)."""
    b1, b2, eps, wd = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay
    if not cfg.decoupled_weight_decay:
        g = g + wd * p
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    if cfg.decoupled_weight_decay:
        p = p - lr * wd * p
    return p, m, v


# a model of 81 parameters in blocks larger than, equal to and smaller than it
# (7 leaves a short last block), and one of 21,996 in blocks of the real size
@pytest.mark.parametrize("dims, block", [
    (ModelDims(4, 3, 3, 2, 2), 100), (ModelDims(4, 3, 3, 2, 2), 81),
    (ModelDims(4, 3, 3, 2, 2), 80), (ModelDims(4, 3, 3, 2, 2), 7),
    (ModelDims(8, 64, 32, 5, 2), optim.ADAM_BLOCK)])
@pytest.mark.parametrize("decoupled", [False, True])
def test_blocked_adam_equals_the_textbook_update(monkeypatch, dims, block, decoupled):
    monkeypatch.setattr(optim, "ADAM_BLOCK", block)
    model = init_model(dims, Rng.stream(1, 0), seed=1)
    cfg = TrainConfig(weight_decay=0.05, decoupled_weight_decay=decoupled)
    state = AdamState(model)
    p, m, v = model.flat.copy(), np.zeros_like(model.flat), np.zeros_like(model.flat)
    rng = Rng(4)
    for t in range(1, 6):
        grads = Params(dims, rng.normal_array(model.flat.shape))
        before = grads.flat.copy()
        adam_step(model, grads, state, t=t, lr=1e-2, cfg=cfg)
        p, m, v = textbook_adam(p, grads.flat, m, v, t, 1e-2, cfg)
        assert grads.flat.tobytes() == before.tobytes()
        assert (model.flat.tobytes(), state.m.tobytes(), state.v.tobytes()) == (
            p.tobytes(), m.tobytes(), v.tobytes()), f"step {t}"


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
    # the exports are arrays; their JSON text is equal only if every value is
    assert jsonio.dumps(exp_a) == jsonio.dumps(exp_b)


# sha256 of outputs written before train and evaluate held a gate workspace,
# which moves the gates, not one arithmetic operation.  They are digests of
# BLAS results, pinned on OpenBLAS's SkylakeX kernel: another kernel or BLAS
# build may change the last bits and the digests.
TRAIN_FLAT_SHA256 = "f7a781389453b360dffeaaa6ebea63c412a23c0580a1fc4fbea3f44b68185d39"
EVAL_SHA256 = {False: "622649cc2137908a5171befe8923d4bcc5aca1d7985aee78176e0d308268a603",
               True: "f0b04ff0268c4cdc4b1e3e18742c57c07446d049a48fa2f80690a6ffc1cbeb56"}
PINNED_KERNEL = "SkylakeX"


def kernel_note() -> str:
    return f"digest pinned on the {PINNED_KERNEL} kernel; this run used {numerics.blas_kernel()}"


def test_trained_parameters_are_pinned():
    model, _ = train(tiny_dataset(), quick_config(epochs=2))
    assert hashlib.sha256(model.flat.tobytes()).hexdigest() == TRAIN_FLAT_SHA256, kernel_note()


@pytest.mark.parametrize("stkim_at_eval", [False, True])
def test_evaluate_report_and_exports_are_pinned(stkim_at_eval):
    model = init_model(ModelDims(6, 6, 6, 2, 2), Rng.stream(0, 0), seed=0)
    report, exports = evaluate(model, tiny_dataset().bags, stkim=StkimConfig(count=3, prob=0.5),
                               stkim_at_eval=stkim_at_eval, eval_seed=1, topk_list=(1, 5))
    text = jsonio.dumps([report.to_dict(), exports])
    assert hashlib.sha256(text.encode()).hexdigest() == EVAL_SHA256[stkim_at_eval], kernel_note()


def test_a_bag_is_evaluated_the_same_whatever_bags_share_the_call():
    # paper dims: a row of all M branches' gates is 1280 values, so every bag is
    # scored in blocks of at most 102 rows, in training (all rows of one buffer)
    # and in evaluation (the head of a one-block buffer) alike; a call with a bag
    # of over 409 instances is scored in threads.  511 = 5 * 102 + 1 is split in
    # near-equal blocks, not in five full ones and a one-row tail.  M=5, L=2048:
    # a row is 20,480 values, so a block holds 6 rows.
    cases = [(ModelDims(8, 64, 128, 5, 2),
              (3, 7, 102, 103, 150, 204, 205, 307, 409, 500, 511, 2200)),
             (ModelDims(8, 8, 2048, 5, 2), (1, 2, 5, 6, 7, 13, 19, 31, 44))]
    for dims, sizes in cases:
        model = init_model(dims, Rng.stream(0, 0), seed=0)
        rng = np.random.default_rng(3)
        bags = [Bag(id=f"b{n}", instances=rng.standard_normal((n, 8)), label=n % 2)
                for n in sizes]
        _, together = evaluate(model, bags)
        for bag in bags:
            _, alone = evaluate(model, [bag])
            trained = mba_forward(bag, model, StkimConfig(), None, training=False)
            for kind, want in (("attention", trained.heatmap),
                               ("embeddings", trained.bag_embedding)):
                assert (alone[kind][bag.id].tobytes() == together[kind][bag.id].tobytes()
                        == want.tobytes()), (dims, bag.id, kind)


def test_a_bag_whose_row_of_gates_exceeds_a_block_is_evaluated_in_blocks_of_rows():
    # M=5, L=16,384: one row of gates is 163,840 values, more than the 2**17 of a
    # block, so a block is one row, in training and evaluation alike
    model = init_model(ModelDims(2, 2, 16_384, 5, 2), Rng.stream(0, 0), seed=0)
    rng = np.random.default_rng(5)
    bags = [Bag(id=f"b{n}", instances=rng.standard_normal((n, 2)), label=n % 2)
            for n in (3, 4, 7)]
    _, exports = evaluate(model, bags)
    for bag in bags:
        trained = mba_forward(bag, model, StkimConfig(), None, training=False)
        assert exports["attention"][bag.id].tobytes() == trained.heatmap.tobytes()
        assert exports["embeddings"][bag.id].tobytes() == trained.bag_embedding.tobytes()


# Scores each bag of the cases in every layout a run uses: a new array of all
# rows, train's buffer of the largest bag (the gates kept), and evaluate's
# one-block buffers, alone and in train's buffer as validation does.  Prints the
# BLAS kernel and thread count, and every bag and output whose bytes differ.
LAYOUT_SCRIPT = """
import json
import numpy as np
from acmil import numerics
from acmil.bags import Bag
from acmil.mil import StkimConfig, gate_block_values, mba_forward
from acmil.model import ModelDims, init_model
from acmil.optim import evaluate
from acmil.rng import Rng

mismatches = []
for dims, sizes in [(ModelDims(8, 64, 128, 5, 2), (1, 7, 102, 103, 150, 205, 511)),
                    (ModelDims(8, 8, 2048, 5, 2), range(1, 45))]:
    model = init_model(dims, Rng.stream(0, 0), seed=0)
    rng = np.random.default_rng(3)
    bags = [Bag(id=f"b{n}", instances=rng.standard_normal((n, 8)), label=n % 2)
            for n in sizes]
    row = 2 * dims.branches * dims.attn_dim
    ws = np.empty(max(max(sizes) * row, gate_block_values(model)))
    _, exports = evaluate(model, bags)
    _, validated = evaluate(model, bags, workspace=ws)
    for bag in bags:
        fresh = mba_forward(bag, model, StkimConfig(), None, training=False)
        held = mba_forward(bag, model, StkimConfig(), None, training=False, workspace=ws)
        for what, got, want in [
                ("gates", held.gates, fresh.gates),
                ("heatmap", held.heatmap, fresh.heatmap),
                ("bag embedding", held.bag_embedding, fresh.bag_embedding),
                ("evaluate heatmap", exports["attention"][bag.id], fresh.heatmap),
                ("evaluate embedding", exports["embeddings"][bag.id], fresh.bag_embedding),
                ("validation heatmap", validated["attention"][bag.id], fresh.heatmap),
                ("validation embedding", validated["embeddings"][bag.id],
                 fresh.bag_embedding)]:
            if got is None or got.tobytes() != want.tobytes():
                mismatches.append(f"M={dims.branches} L={dims.attn_dim} N={bag.n_instances}: "
                                  f"{what}")
print(json.dumps({"kernel": numerics.blas_kernel(), "threads": numerics.blas_threads(),
                  "mismatches": mismatches}))
"""


@pytest.mark.parametrize("coretype, kernel", [("Haswell", "Haswell"), ("Prescott", "Katmai")])
def test_a_bag_gets_the_same_bytes_in_every_layout_on_other_blas_kernels(coretype, kernel):
    # OpenBLAS picks its kernel per CPU; on these two a product of a block of rows
    # rounds differently from the same rows inside a larger product, but at one
    # BLAS thread it gives the same bytes whatever buffer it writes to.  So with
    # one row layout a bag gets the same bytes in training, validation and eval.
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(acmil.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LAYOUT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result["kernel"] is None:
        pytest.skip("OpenBLAS cannot be reached, so its kernel cannot be forced")
    if result["kernel"] != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} did not take effect: OpenBLAS runs "
                    f"its {result['kernel']} kernel")
    assert result["threads"] == 1
    assert result["mismatches"] == []


def test_evaluating_a_bag_of_32000_instances_holds_no_n_by_l_arrays():
    # paper dims: one product would hold 2 * 32000 * 5 * 128 gate values
    # (328 MB), one branch of them 65.5 MB; the embeddings are 16.4 MB
    model = init_model(ModelDims(8, 64, 128, 5, 2), Rng.stream(0, 0), seed=0)
    bag = Bag(id="big", instances=np.random.default_rng(0).standard_normal((32_000, 8)),
              label=1)
    tracemalloc.start()
    try:
        report, _ = evaluate(model, [bag])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_bags == 1
    assert peak < 40e6, f"peak of {peak / 1e6:.1f} MB"



def test_training_holds_one_gate_buffer_and_one_gradient():
    # default dataset and paper dims: the model, its best copy, the gradient,
    # Adam's two moments and its update are 0.68 MB each, and the gate buffer
    # of the largest bag (N = 198) is 2.03 MB; validation scores in that buffer
    ds = split_dataset(generate_synthetic(SyntheticConfig()), (0.6, 0.2, 0.2), 0)
    train(tiny_dataset(), quick_config(epochs=1))  # the modules a first call imports
    tracemalloc.start()
    try:
        train(ds, TrainConfig(epochs=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0e6, f"peak of {peak / 1e6:.2f} MB"  # 8.85 MB before


@pytest.mark.parametrize("topk_list, problem", [((10, 10), "distinct"), ((0,), ">= 1"),
                                                ((), "must not be empty")])
def test_evaluate_refuses_a_bad_topk_list(topk_list, problem):
    model = init_model(ModelDims(6, 8, 8, 2, 2), Rng.stream(0, 0), seed=0)
    with pytest.raises(ConfigError, match=f"topk_list.*{problem}"):
        evaluate(model, tiny_dataset().bags, topk_list=topk_list)


def test_evaluate_refuses_a_repeated_bag_id_before_scoring_any_bag(scoring_threads):
    model = init_model(ModelDims(6, 8, 8, 2, 2), Rng.stream(0, 0), seed=0)
    bags = tiny_dataset().bags[:3]
    twin = Bag(id=bags[1].id, instances=bags[0].instances, label=bags[0].label)
    with pytest.raises(ConfigError, match=f"bag id {bags[1].id!r} occurs more than once"):
        evaluate(model, bags + [twin])
    assert scoring_threads == []


# paper dims: a bag of 700 instances exceeds EVAL_GATE_VALUES in all M branches
PAPER_DIMS = ModelDims(8, 64, 128, 5, 2)


def mixed_bags(sizes=(7, 700, 150, 1200, 30)):
    rng = np.random.default_rng(5)
    return [Bag(id=f"b{i}", instances=rng.standard_normal((n, 8)), label=i % 2,
                instance_labels=(np.arange(n) < n // 3).astype(np.int64))
            for i, n in enumerate(sizes)]


@pytest.fixture
def scoring_threads(monkeypatch):
    """Records the thread that scores each bag and OpenBLAS's thread count
    there; several threads are asked for on any machine."""
    seen = []
    forward = optim.mba_forward

    def recording(*args, **kwargs):
        seen.append((threading.get_ident(), numerics.blas_threads()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(optim, "mba_forward", recording)
    monkeypatch.setattr(optim, "_cpus", lambda: 3)
    return seen


@pytest.mark.parametrize("sizes", [(7, 150, 30), (7, 700, 150, 1200, 30)])
def test_a_workspace_changes_no_evaluation(scoring_threads, sizes):
    # the second set exceeds EVAL_GATE_VALUES, so it is scored in threads too
    model = init_model(PAPER_DIMS, Rng.stream(0, 0), seed=0)
    bags = mixed_bags(sizes)
    report, exports = evaluate(model, bags, topk_list=(1, 5))
    want = jsonio.dumps([report.to_dict(), exports])
    need = gate_block_values(model)
    ws = np.full(need + 3, np.nan)  # a value read from the buffer would show
    report, exports = evaluate(model, bags, topk_list=(1, 5), workspace=ws)
    assert jsonio.dumps([report.to_dict(), exports]) == want
    assert not np.isnan(ws[0])  # the calling thread's buffer
    # every bag's largest block is at least its 7 rows of 1280 gates
    with pytest.raises(ValueError, match=r"workspace holds 8959 float64 values, a block of "
                                         r"gates needs \d+ float64"):
        evaluate(model, bags, workspace=np.empty(7 * 1280 - 1))


def test_threaded_evaluate_matches_one_worker(scoring_threads, monkeypatch):
    # one worker per bag, more than the cores, switching threads often: two
    # workers sharing a gate buffer would change the bits
    model = init_model(PAPER_DIMS, Rng.stream(0, 0), seed=0)
    bags = mixed_bags((7, 700, 150, 1200, 30, 460, 90, 800))
    assert 2 * max(b.n_instances for b in bags) * 5 * 128 > EVAL_GATE_VALUES
    monkeypatch.setattr(optim, "_cpus", lambda: len(bags))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, threaded_exports = evaluate(model, bags, topk_list=(1, 5))
    finally:
        sys.setswitchinterval(interval)
    if numerics.blas_threads() is not None:
        assert all(ident != threading.get_ident() and blas == 1
                   for ident, blas in scoring_threads)
    scoring_threads.clear()
    monkeypatch.setattr(numerics, "_openblas", lambda: None)  # the hook cannot reach BLAS
    serial, serial_exports = evaluate(model, bags, topk_list=(1, 5))
    assert {ident for ident, _ in scoring_threads} == {threading.get_ident()}
    assert threaded.to_dict() == serial.to_dict()
    for kind in ("attention", "embeddings"):
        for bag in bags:
            assert (threaded_exports[kind][bag.id].tobytes()
                    == serial_exports[kind][bag.id].tobytes())


def test_evaluate_with_masking_scores_in_the_calling_thread(scoring_threads):
    model = init_model(PAPER_DIMS, Rng.stream(0, 0), seed=0)
    bags = mixed_bags((700, 1200))
    evaluate(model, bags, stkim=StkimConfig(count=3, prob=0.5), stkim_at_eval=True)
    assert {ident for ident, _ in scoring_threads} == {threading.get_ident()}


@pytest.fixture
def two_blas_threads():
    """OpenBLAS held at two threads for the test, so that a count left at one shows."""
    old = numerics.set_blas_threads(2)
    if old is None:
        pytest.skip("OpenBLAS cannot be reached in this process")
    yield
    numerics.set_blas_threads(old)


def test_evaluate_restores_blas_threads_and_leaves_no_thread(scoring_threads, two_blas_threads):
    model = init_model(PAPER_DIMS, Rng.stream(0, 0), seed=0)
    bags = mixed_bags()
    threads = set(threading.enumerate())
    evaluate(model, bags)
    assert {blas for _, blas in scoring_threads} == {1}
    assert numerics.blas_threads() == 2 and set(threading.enumerate()) == threads
    wrong = Bag(id="wrong", instances=np.zeros((900, 3)), label=0)
    with pytest.raises(ConfigError, match="'wrong' has 3 features"):
        evaluate(model, bags + [wrong])
    assert numerics.blas_threads() == 2 and set(threading.enumerate()) == threads


def test_threaded_evaluate_raises_the_first_failing_bags_error(scoring_threads, monkeypatch):
    # fail0 fails last in time, and first in bag order
    forward = optim.mba_forward

    def failing(bag, *args, **kwargs):
        if bag.id.startswith("fail"):
            time.sleep(0.2 if bag.id == "fail0" else 0.0)
            raise NumericsError(f"{bag.id} diverged")
        return forward(bag, *args, **kwargs)

    monkeypatch.setattr(optim, "mba_forward", failing)
    model = init_model(PAPER_DIMS, Rng.stream(0, 0), seed=0)
    bags = mixed_bags((1200,))
    bags += [Bag(id=f"fail{i}", instances=np.zeros((20, 8)), label=0) for i in range(4)]
    with pytest.raises(NumericsError, match="fail0 diverged"):
        evaluate(model, bags)


def test_a_diverging_model_warns_nothing_in_any_thread(scoring_threads, monkeypatch):
    # a helper thread does not inherit the caller's numpy error state
    model = init_model(PAPER_DIMS, Rng.stream(0, 0), seed=0)
    model.embed_w[:] = 1e308  # the embedding overflows, the gate product makes NaN
    bags = mixed_bags((700, 1200, 900))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericsError) as threaded:
            evaluate(model, bags)
    assert caught == []
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    with pytest.raises(NumericsError) as serial:
        evaluate(model, bags)
    assert str(threaded.value) == str(serial.value)


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
