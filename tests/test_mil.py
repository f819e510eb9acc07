import logging
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acmil.bags import Bag
from acmil.errors import ConfigError
from acmil.losses import backward
from acmil.mil import (
    GATE_BLOCK_VALUES,
    ForwardTrace,
    StkimConfig,
    gate_block_values,
    mba_forward,
    pooling_forward,
    stkim_mask,
)
from acmil.model import (
    Model,
    ModelDims,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from acmil.numerics import sigmoid, softmax
from acmil.rng import Rng


def tiny_model(seed=0, dims=None, activation="relu"):
    dims = dims or ModelDims(feature_dim=3, embed_dim=4, attn_dim=5, branches=2, classes=2)
    return init_model(dims, Rng.stream(seed, 0), activation=activation, seed=seed)


def random_bag(seed, n, d, label=0):
    return Bag(id=f"b{seed}", instances=Rng.stream(seed, 1).normal_array((n, d)), label=label)


# ---------------------------------------------------------------- embedding


def embeddings(bag, model):
    return mba_forward(bag, model, StkimConfig(), None, training=False).embeddings


def test_embed_zero_weights_gives_zero():
    model = tiny_model()
    model.embed_w[:] = 0.0
    model.embed_b[:] = 0.0
    h = embeddings(random_bag(1, 5, 3), model)
    assert np.array_equal(h, np.zeros((5, 4)))


def test_embed_identity_on_nonnegative_input():
    dims = ModelDims(feature_dim=3, embed_dim=3, attn_dim=4, branches=1, classes=2)
    model = tiny_model(dims=dims)
    model.embed_w[:] = np.eye(3)
    model.embed_b[:] = 0.0
    x = np.abs(Rng(3).normal_array((6, 3)))
    h = embeddings(Bag(id="x", instances=x, label=0), model)
    assert np.allclose(h, x, atol=0.0)


def test_embed_matches_explicit_matrix_arithmetic():
    model = tiny_model(seed=4)
    bag = random_bag(5, 2, 3)
    h = embeddings(bag, model)
    # independent oracle: scalar loops
    for n in range(2):
        for e in range(4):
            acc = model.embed_b[e]
            for d in range(3):
                acc += model.embed_w[e, d] * bag.instances[n, d]
            assert h[n, e] == pytest.approx(max(acc, 0.0), abs=1e-12)


def test_embed_dimension_mismatch():
    model = tiny_model()
    with pytest.raises(ConfigError):
        embeddings(random_bag(0, 4, 7), model)


# ---------------------------------------------------------------- attention


def raw_attention(bag, model):
    return mba_forward(bag, model, StkimConfig(), None, training=False).raw_attention


def test_gated_attention_single_instance():
    model = tiny_model()
    assert raw_attention(random_bag(0, 1, 3), model).tolist() == [[1.0], [1.0]]


def test_gated_attention_identical_rows_uniform():
    model = tiny_model()
    bag = Bag(id="x", instances=np.tile(Rng(1).normal_array((1, 3)), (6, 1)), label=0)
    assert np.allclose(raw_attention(bag, model), np.full((2, 6), 1 / 6), atol=1e-12)


def test_gated_attention_hand_case():
    # D = E = L = 1, identity embedding: score_in = w_i * tanh(v_i h_n) * sigm(u_i h_n)
    model = Model(ModelDims(feature_dim=1, embed_dim=1, attn_dim=1, branches=2, classes=2),
                  "identity")
    model.embed_w[:] = 1.0
    model.att_v[:, 0, 0] = [2.0, -1.0]
    model.att_u[:, 0, 0] = [0.0, 3.0]
    model.att_w[:, 0] = [1.0, 0.5]
    bag = Bag(id="x", instances=np.array([[1.0], [-1.0]]), label=0)
    s3 = 1.0 / (1.0 + math.exp(-3.0))  # sigm(3); sigm(-3) = 1 - s3
    scores = [
        [math.tanh(2.0) * 0.5, math.tanh(-2.0) * 0.5],
        [0.5 * math.tanh(-1.0) * s3, 0.5 * math.tanh(1.0) * (1.0 - s3)],
    ]
    expected = np.array([softmax(np.array(row)) for row in scores])
    got = raw_attention(bag, model)
    assert np.max(np.abs(got - expected)) < 1e-12


# ---------------------------------------------------------------- stkim


def reference_mask(attn, cfg, rng, training, frozen_zeroed=None):
    """Row-by-row masking, the loop the stacked ``stkim_mask`` replaced: each
    branch row in turn draws one coin per top-k slot in rank order.  Returns
    the (M, N) attention, (M, N) zeroed, (M,) renormalised flags and the
    number of rows whose mask was discarded."""
    rows, discards = [], 0
    for i, row in enumerate(attn):
        no_mask = np.zeros(len(row), dtype=bool)
        if not training and not cfg.enabled_at_eval:
            rows.append((row, no_mask, False))
            continue
        if frozen_zeroed is not None:
            zeroed = frozen_zeroed[i].astype(bool)
        else:
            zeroed = no_mask.copy()
            if cfg.prob > 0.0:
                for idx in np.argsort(-row, kind="stable")[:cfg.resolve_k(len(row))]:
                    if rng is None:
                        raise ConfigError("stkim_mask needs an rng when masking is active")
                    if rng.uniform() < cfg.prob:
                        zeroed[idx] = True
        survivors = row * ~zeroed
        total = survivors.sum()
        if not zeroed.any() or total == 0.0:
            discards += bool(zeroed.any())
            rows.append((row, no_mask, False))
        else:
            rows.append((survivors / total, zeroed, True))
    attention, zeroed, renormalized = map(np.array, zip(*rows))
    return attention, zeroed, renormalized, discards


@st.composite
def mask_cases(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 60))
    # zeros make rows whose whole mass can sit in the top k, so a draw can discard
    weights = draw(hnp.arrays(np.float64, (m, n),
                              elements=st.one_of(st.just(0.0), st.floats(1e-6, 1e6))))
    assume((weights.sum(axis=1) > 0.0).all())
    prob = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        cfg = StkimConfig(count=draw(st.integers(0, 70)), prob=prob,
                          enabled_at_eval=draw(st.booleans()))
    else:
        cfg = StkimConfig(count=None, fraction=draw(st.floats(1e-3, 1.0)), prob=prob,
                          enabled_at_eval=draw(st.booleans()))
    frozen = draw(st.one_of(st.none(), hnp.arrays(np.bool_, (m, n))))
    return weights / weights.sum(axis=1, keepdims=True), cfg, frozen, draw(st.booleans())


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mask_cases(), seed=st.integers(0, 2**64 - 1))
def test_stacked_mask_matches_the_row_by_row_reference(case, seed, caplog):
    attn, cfg, frozen, training = case
    want_rng, got_rng = Rng(seed), Rng(seed)
    want = reference_mask(attn, cfg, want_rng, training, frozen)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="acmil.mil"):
        got = stkim_mask(attn, cfg, got_rng, training, frozen)
    assert got.attention.dtype == np.float64 and got.attention.shape == attn.shape
    assert got.attention.tobytes() == want[0].tobytes()
    assert np.array_equal(got.zeroed, want[1]) and got.zeroed.dtype == bool
    assert np.array_equal(got.renormalized, want[2]) and got.renormalized.shape == (len(attn),)
    assert got_rng.next_u64() == want_rng.next_u64()
    assert sum("mask discarded" in r.message for r in caplog.records) == want[3]
    # rows that were not renormalised pass through bit for bit
    kept = ~got.renormalized
    assert got.attention[kept].tobytes() == attn[kept].tobytes()
    assert not got.zeroed[kept].any()


def test_stkim_p_zero_is_identity():
    attn = softmax(Rng(2).normal_array((9,)))[None]
    res = stkim_mask(attn, StkimConfig(count=3, prob=0.0), Rng(0), training=True)
    assert np.array_equal(res.attention, attn)
    assert not res.zeroed.any()
    assert not res.renormalized.any()


def test_stkim_eval_is_bit_identical():
    attn = softmax(Rng(3).normal_array((14,)))[None]
    res = stkim_mask(attn, StkimConfig(count=5, prob=0.9), None, training=False)
    assert res.attention is attn or np.array_equal(res.attention, attn)
    assert not res.zeroed.any()


def test_stkim_hand_case_full_mask_of_top2():
    attn = np.array([[0.4, 0.3, 0.15, 0.1, 0.05]])
    res = stkim_mask(attn, StkimConfig(count=2, prob=1.0), Rng(0), training=True)
    assert np.max(np.abs(res.attention[0] - [0.0, 0.0, 0.5, 1 / 3, 1 / 6])) < 1e-12
    assert res.zeroed[0].tolist() == [True, True, False, False, False]
    assert res.renormalized.tolist() == [True]


def test_stkim_degenerate_all_masked_falls_back(caplog):
    res = stkim_mask(np.array([[1.0]]), StkimConfig(count=1, prob=1.0), Rng(0), training=True)
    assert res.attention.tolist() == [[1.0]]
    assert not res.zeroed.any()
    assert res.renormalized.tolist() == [False]
    # rows 1 and 3 hold all their mass in the top 2, so p = 1 masks all of it
    attn = np.array([[0.4, 0.3, 0.2, 0.1],
                     [0.5, 0.5, 0.0, 0.0],
                     [0.1, 0.2, 0.3, 0.4],
                     [0.0, 1.0, 0.0, 0.0],
                     [0.25, 0.25, 0.25, 0.25]])
    with caplog.at_level(logging.INFO, logger="acmil.mil"):
        res = stkim_mask(attn, StkimConfig(count=2, prob=1.0), Rng(0), training=True)
    assert sum("mask discarded" in r.message for r in caplog.records) == 2
    assert res.renormalized.tolist() == [True, False, True, False, True]
    assert res.attention[[1, 3]].tobytes() == attn[[1, 3]].tobytes()
    assert not res.zeroed[[1, 3]].any()
    assert np.allclose(res.attention.sum(axis=1), 1.0, atol=1e-15)


def test_stkim_fraction_resolution():
    assert StkimConfig(count=None, fraction=0.01, prob=0.5).resolve_k(350) == 4
    assert StkimConfig(count=None, fraction=0.01, prob=0.5).resolve_k(50) == 1
    assert StkimConfig(count=None, fraction=1.0, prob=0.5).resolve_k(7) == 7
    assert StkimConfig(count=12, prob=0.5).resolve_k(7) == 7


def test_stkim_only_top_k_indices_are_zeroed():
    for seed in range(30):
        rng = Rng.stream(seed, 0)
        n = rng.int_range(5, 40)
        # distinct values so the top-k set is unambiguous
        scores = np.array(rng.permutation(n), dtype=np.float64)
        attn = softmax(scores)
        k = rng.int_range(1, n)
        res = stkim_mask(attn[None], StkimConfig(count=k, prob=0.7), rng, training=True)
        top = set(np.argsort(-attn, kind="stable")[:k].tolist())
        assert set(np.nonzero(res.zeroed[0])[0].tolist()) <= top
        assert abs(res.attention.sum() - 1.0) < 1e-9
        assert (res.attention >= 0.0).all()


@settings(deadline=None)
@given(weights=hnp.arrays(np.float64, st.integers(1, 60),
                          elements=st.one_of(st.just(0.0), st.floats(1e-6, 1e6))),
       k=st.integers(1, 70), prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
def test_stkim_mask_properties(weights, k, prob, seed):
    assume(weights.sum() > 0.0)
    attn = weights / weights.sum()
    cfg = StkimConfig(count=k, prob=prob)
    res = stkim_mask(attn[None], cfg, Rng(seed), training=True)
    masked, zeroed = res.attention[0], res.zeroed[0]
    assert abs(masked.sum() - 1.0) <= 1e-12
    # at most k entries are zeroed, each among the k largest
    k_eff = cfg.resolve_k(len(attn))
    assert zeroed.sum() <= k_eff
    assert (attn[zeroed] >= np.sort(attn)[-k_eff]).all()
    assert (masked[zeroed] == 0.0).all()
    if not res.renormalized[0]:
        assert masked.tobytes() == attn.tobytes()
    # evaluation is the identity, bit for bit
    res = stkim_mask(attn[None], cfg, None, training=False)
    assert res.attention[0].tobytes() == attn.tobytes()
    assert not res.zeroed.any()


def test_stkim_masking_frequency_quick():
    attn = softmax(Rng(10).normal_array((20,)))
    top = np.argsort(-attn, kind="stable")[:4]
    rng = Rng(99)
    counts = np.zeros(20)
    trials = 2000
    for _ in range(trials):
        res = stkim_mask(attn[None], StkimConfig(count=4, prob=0.6), rng, training=True)
        counts += res.zeroed[0]
    freqs = counts[top] / trials
    assert np.all(np.abs(freqs - 0.6) < 0.05)


def test_stkim_requires_rng_when_masking():
    attn = softmax(Rng(1).normal_array((3, 5)))
    with pytest.raises(ConfigError):
        stkim_mask(attn, StkimConfig(count=2, prob=0.5), None, training=True)
    # no coin is drawn when k = 0 or p = 0, so none is needed then
    for cfg in (StkimConfig(count=0, prob=0.5), StkimConfig(count=2, prob=0.0)):
        res = stkim_mask(attn, cfg, None, training=True)
        assert res.attention.tobytes() == attn.tobytes() and not res.zeroed.any()


def test_stkim_config_from_dict_defaults():
    cfg = StkimConfig.from_dict({"prob": 0.8})
    assert cfg.count == 10 and cfg.fraction is None and cfg.prob == 0.8
    cfg = StkimConfig.from_dict({"fraction": 0.05, "prob": 0.5})
    assert cfg.count is None and cfg.fraction == 0.05
    rt = StkimConfig.from_dict(StkimConfig(count=7, prob=0.3).to_dict())
    assert (rt.count, rt.fraction, rt.prob) == (7, None, 0.3)


def test_stkim_config_validation():
    with pytest.raises(ConfigError):
        StkimConfig(count=None, fraction=None)
    with pytest.raises(ConfigError):
        StkimConfig(count=3, fraction=0.5)
    with pytest.raises(ConfigError):
        StkimConfig(count=None, fraction=1.5)
    with pytest.raises(ConfigError):
        StkimConfig(count=3, prob=1.2)


# ---------------------------------------------------------------- pooling ops


def uniform_attention_model(dim, branches):
    """Identity embedding (E = D) and zero attention weights, so that every
    branch scores all instances alike and attends uniformly until masked."""
    model = Model(ModelDims(feature_dim=dim, embed_dim=dim, attn_dim=2, branches=branches,
                            classes=2), "identity")
    model.embed_w[:] = np.eye(dim)
    return model


def test_aggregate_one_hot_and_uniform():
    model = uniform_attention_model(3, branches=2)
    h = Rng(4).normal_array((5, 3))
    bag = Bag(id="x", instances=h, label=0)
    trace = mba_forward(bag, model, StkimConfig(), None, training=False)
    assert np.allclose(trace.bag_embedding, h.mean(axis=0), atol=1e-15)
    # a replayed mask that keeps one instance makes every branch attend to it alone
    keep_2 = np.ones((2, 5), dtype=bool)
    keep_2[:, 2] = False
    trace = mba_forward(bag, model, StkimConfig(), None, training=True, frozen_masks=keep_2)
    assert np.array_equal(trace.branch_embeddings, [h[2], h[2]])
    assert np.array_equal(trace.bag_embedding, h[2])


def test_aggregate_hand_case():
    # branch 0 stays uniform, branch 1 keeps the second instance: heatmap [0.25, 0.75]
    model = uniform_attention_model(2, branches=2)
    bag = Bag(id="x", instances=np.array([[1.0, 2.0], [3.0, 4.0]]), label=0)
    frozen = np.array([[False, False], [True, False]])
    trace = mba_forward(bag, model, StkimConfig(), None, training=True, frozen_masks=frozen)
    assert trace.heatmap.tolist() == [0.25, 0.75]
    assert np.allclose(trace.branch_embeddings, [[2.0, 3.0], [3.0, 4.0]], atol=1e-15)
    assert np.allclose(trace.bag_embedding, [2.5, 3.5], atol=1e-15)


def test_average_heatmap_cases():
    # one branch: the heatmap is its row, bit for bit
    dims = ModelDims(feature_dim=3, embed_dim=4, attn_dim=5, branches=1, classes=2)
    trace = mba_forward(random_bag(5, 4, 3), tiny_model(seed=5, dims=dims),
                        StkimConfig(count=2, prob=0.6), Rng(0), training=True)
    assert trace.heatmap.tobytes() == trace.attention[0].tobytes()
    # two identical branches average to their common row
    model = tiny_model(seed=5)
    model.att_vu[:, 5:] = model.att_vu[:, :5]
    model.att_w[1] = model.att_w[0]
    trace = mba_forward(random_bag(5, 4, 3), model, StkimConfig(), None, training=False)
    assert trace.attention[0].tobytes() == trace.attention[1].tobytes()
    assert np.allclose(trace.heatmap, trace.attention[0], atol=1e-15)
    # disjoint one-hot rows average to a half each
    frozen = np.array([[True, False], [False, True]])
    trace = mba_forward(random_bag(6, 2, 2), uniform_attention_model(2, branches=2),
                        StkimConfig(), None, training=True, frozen_masks=frozen)
    assert trace.heatmap.tolist() == [0.5, 0.5]


# ---------------------------------------------------------------- forward


def abmil_oracle(bag, model):
    """Directly coded single-branch gated-attention pipeline."""
    h = np.maximum(bag.instances @ model.embed_w.T + model.embed_b, 0.0)
    gate = np.tanh(h @ model.att_v[0].T) * sigmoid(h @ model.att_u[0].T)
    attn = softmax(gate @ model.att_w[0])
    z = attn @ h
    probs = softmax(model.bag_head_w @ z + model.bag_head_b)
    return attn, z, probs


def test_single_branch_reduces_to_plain_pipeline():
    dims = ModelDims(feature_dim=6, embed_dim=5, attn_dim=4, branches=1, classes=3)
    model = tiny_model(seed=11, dims=dims)
    stkim = StkimConfig(count=10, prob=0.0)
    for seed in range(10):
        bag = random_bag(seed, 12, 6, label=seed % 3)
        trace = mba_forward(bag, model, stkim, Rng(seed), training=True)
        attn, z, probs = abmil_oracle(bag, model)
        assert np.max(np.abs(trace.heatmap - attn)) < 1e-12
        assert np.max(np.abs(trace.bag_embedding - z)) < 1e-12
        assert np.max(np.abs(trace.bag_probs - probs)) < 1e-12


def test_forward_eval_leaves_attention_unmasked():
    model = tiny_model(seed=2)
    bag = random_bag(3, 8, 3)
    trace = mba_forward(bag, model, StkimConfig(count=4, prob=0.9), None, training=False)
    for bt in trace.branches:
        assert np.array_equal(bt.attention, bt.raw_attention)
        assert not bt.zeroed.any()


def test_forward_attention_vectors_sum_to_one():
    model = tiny_model(seed=6)
    stkim = StkimConfig(count=3, prob=0.8)
    rng = Rng(1)
    for seed in range(10):
        trace = mba_forward(random_bag(seed, 15, 3), model, stkim, rng, training=True)
        for bt in trace.branches:
            assert abs(bt.attention.sum() - 1.0) < 1e-9
            assert (bt.attention >= 0.0).all()
        assert abs(trace.heatmap.sum() - 1.0) < 1e-9


def test_forward_bag_embedding_equals_mean_of_branch_embeddings():
    model = tiny_model(seed=7)
    stkim = StkimConfig(count=4, prob=0.7)
    rng = Rng(2)
    for seed in range(10):
        trace = mba_forward(random_bag(seed, 20, 3), model, stkim, rng, training=True)
        mean_z = np.mean([bt.embedding for bt in trace.branches], axis=0)
        assert np.max(np.abs(trace.bag_embedding - mean_z)) < 1e-10


def test_forward_composition_matches_component_ops():
    # compose the already-tested pieces manually, replaying the same masks
    dims = ModelDims(feature_dim=4, embed_dim=3, attn_dim=3, branches=3, classes=2)
    model = tiny_model(seed=9, dims=dims)
    bag = random_bag(21, 9, 4, label=1)
    stkim = StkimConfig(count=3, prob=0.6)
    trace = mba_forward(bag, model, stkim, Rng(33), training=True)

    h = embeddings(bag, model)
    attns = stkim_mask(raw_attention(bag, model), stkim, None, training=True,
                       frozen_zeroed=trace.zeroed).attention
    for i, attn in enumerate(attns):
        z_i = attn @ h
        probs_i = softmax(model.head_w[i] @ z_i + model.head_b[i])
        assert np.max(np.abs(probs_i - trace.branches[i].probs)) < 1e-12
    z = attns.mean(axis=0) @ h
    probs = softmax(model.bag_head_w @ z + model.bag_head_b)
    assert np.max(np.abs(probs - trace.bag_probs)) < 1e-12


def test_forward_permutation_invariance_at_p_zero():
    model = tiny_model(seed=13)
    bag = random_bag(14, 11, 3, label=1)
    stkim = StkimConfig(count=5, prob=0.0)
    trace = mba_forward(bag, model, stkim, Rng(0), training=True)
    perm = Rng(50).permutation(11)
    permuted = Bag(id="perm", instances=bag.instances[perm], label=bag.label)
    trace_p = mba_forward(permuted, model, stkim, Rng(0), training=True)
    assert np.max(np.abs(trace_p.heatmap - trace.heatmap[perm])) < 1e-10
    assert np.max(np.abs(trace_p.bag_probs - trace.bag_probs)) < 1e-10
    assert np.max(np.abs(trace_p.bag_embedding - trace.bag_embedding)) < 1e-10


@settings(deadline=None, max_examples=40)
@given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), training=st.booleans(),
       rows=st.integers(3, 31), slack=st.integers(0, 29))
# splits in blocks of at most 10 rows that would end in a block of 1, 2 or 9 rows
@example(sizes=[11, 21, 22, 29, 30, 10], seed=0, training=True, rows=10, slack=29)
@example(sizes=[7, 13, 5], seed=1, training=False, rows=3, slack=0)
def test_forward_with_a_workspace_is_bit_identical(sizes, seed, training, rows, slack):
    # M=3, L=5: a row of all branches' gates is 30 values, and a workspace of
    # fewer rows than a bag scores it in near-equal blocks.  From 3 rows on no
    # block of a bag of 2 or more is a single row; see the next test for why.
    model = tiny_model(seed % 100, ModelDims(feature_dim=3, embed_dim=4, attn_dim=5,
                                             branches=3, classes=2))
    stkim = StkimConfig(count=3, prob=0.6)
    ws = np.empty(30 * rows + slack)
    ws[:] = np.nan  # a value the forward pass read from the buffer would show
    for i, n in enumerate(sizes):
        bag = random_bag(seed + i, n, 3)
        want = mba_forward(bag, model, stkim, Rng(seed + i), training)
        got = mba_forward(bag, model, stkim, Rng(seed + i), training, workspace=ws)
        blocked = n > ws.size // 30
        assert (got.gates is None) == blocked
        for f in fields(ForwardTrace):
            a, b = getattr(want, f.name), getattr(got, f.name)
            if b is None:
                continue
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            assert np.shares_memory(b, ws) == (f.name == "gates"), f.name
        if blocked:
            with pytest.raises(ValueError, match="no gates"):
                backward(got, bag, model)


@pytest.mark.parametrize("rows", [1, 2])
def test_a_workspace_of_one_or_two_rows_scores_a_bag_forward_only(rows):
    # BLAS may round a one-row product differently from the same row inside a
    # product of several rows, so these agree to 1e-12, not in every bit
    model = tiny_model(3, ModelDims(feature_dim=3, embed_dim=4, attn_dim=5, branches=3,
                                    classes=2))
    for n in (1, 2, 5, 9):
        bag = random_bag(n, n, 3)
        want = mba_forward(bag, model, StkimConfig(), None, training=False)
        ws = np.full(30 * rows, np.nan)
        got = mba_forward(bag, model, StkimConfig(), None, training=False, workspace=ws)
        assert (got.gates is None) == (n > rows)
        assert got.embeddings.tobytes() == want.embeddings.tobytes()
        assert np.max(np.abs(got.raw_attention - want.raw_attention)) < 1e-12
        assert np.max(np.abs(got.bag_probs - want.bag_probs)) < 1e-12


def test_the_evaluation_gate_buffer_is_a_block_or_three_rows_of_gates():
    # M=2, L=5: a row of all branches' gates is 20 values, and paper dims (M=5,
    # L=128) 1280 values, of which a block holds 102 rows
    assert gate_block_values(tiny_model()) == GATE_BLOCK_VALUES == 2**17
    paper = tiny_model(0, ModelDims(feature_dim=3, embed_dim=2, attn_dim=128, branches=5,
                                    classes=2))
    assert gate_block_values(paper) // 1280 == 102
    # three rows exceed a block from M·L = 21,846 on, so no block is a single row
    for l, size in [(4_369, GATE_BLOCK_VALUES), (4_370, 3 * 2 * 5 * 4_370),
                    (40_000, 3 * 2 * 5 * 40_000)]:
        model = tiny_model(0, ModelDims(feature_dim=3, embed_dim=2, attn_dim=l, branches=5,
                                        classes=2))
        assert gate_block_values(model) == size, l


def test_a_workspace_too_small_or_not_float64_is_refused():
    model = tiny_model()  # M=2, L=5: one row of all branches' gates is 2*2*5 = 20 values
    for ws, held in [(np.empty(19), "19 float64"), (np.empty(20, np.float32), "20 float32")]:
        with pytest.raises(ValueError, match=f"holds {held} values, one row of all "
                                             f"branches' gates needs 20 float64"):
            mba_forward(random_bag(0, 4, 3), model, StkimConfig(), None, training=False,
                        workspace=ws)


# ---------------------------------------------------------------- baselines


def test_pooling_single_instance_max_equals_mean():
    model = tiny_model(seed=1)
    bag = random_bag(2, 1, 3)
    assert np.allclose(
        pooling_forward(bag, model, "max"), pooling_forward(bag, model, "mean"), atol=0.0
    )


def test_pooling_max_invariant_to_duplication():
    model = tiny_model(seed=3)
    base = Rng(8).normal_array((4, 3))
    bag1 = Bag(id="a", instances=base, label=0)
    bag2 = Bag(id="b", instances=np.vstack([base, base, base]), label=0)
    assert np.allclose(
        pooling_forward(bag1, model, "max"), pooling_forward(bag2, model, "max"), atol=0.0
    )


def test_pooling_hand_case():
    model = tiny_model(seed=5)
    bag = random_bag(6, 3, 3)
    h = embeddings(bag, model)
    for mode, pooled in (("max", h.max(axis=0)), ("mean", h.mean(axis=0))):
        expected = softmax(model.bag_head_w @ pooled + model.bag_head_b)
        assert np.max(np.abs(pooling_forward(bag, model, mode) - expected)) < 1e-12


def test_pooling_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        pooling_forward(random_bag(0, 3, 3), tiny_model(), "median")


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    dims = ModelDims(feature_dim=5, embed_dim=4, attn_dim=3, branches=3, classes=4)
    model = tiny_model(seed=21, dims=dims)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, config={"note": "round-trip"})
    loaded, cfg = load_checkpoint(path)
    assert cfg == {"note": "round-trip"}
    for (name_a, a), (name_b, b) in zip(model.parameters(), loaded.parameters()):
        assert name_a == name_b
        assert np.array_equal(a, b)
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2, config={"note": "round-trip"})
    assert path.read_bytes() == path2.read_bytes()
