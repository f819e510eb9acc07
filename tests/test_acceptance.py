"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy mechanistic experiment (criterion 5) trains ten full models on
the default synthetic dataset and takes a few minutes; everything else is
fast.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.
"""

import logging
import time

import numpy as np
import pytest

from acmil.bags import Bag
from acmil.cli import main
from acmil.data import SyntheticConfig, generate_synthetic, split_dataset
from acmil.metrics import macro_auc, topk_cumulative, v_measure
from acmil.mil import StkimConfig, mba_forward, stkim_mask
from acmil.model import ModelDims, init_model
from acmil.numerics import sigmoid, softmax
from acmil.optim import TrainConfig, evaluate, train
from acmil.rng import Rng

from test_metrics import brute_force_auc, hand_v_measure


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({detail})")


# -------------------------------------------------------------- criterion 1


def test_criterion_01_gradient_correctness(capsys):
    t0 = time.time()
    rc = main(["grad-check", "--seed", "0", "--seeds", "20"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS" in out
    worst = max(
        float(line.rsplit("=", 1)[1]) for line in out.strip().split("\n") if "max_rel_error" in line
    )
    assert worst < 1e-5
    assert elapsed < 30.0
    report(1, "gradient-correctness", f"max_err={worst:.3e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_heatmap_average_aggregation_identity():
    t0 = time.time()
    rng = Rng(202)
    worst = 0.0
    for _ in range(1000):
        n = rng.int_range(2, 30)
        e = rng.int_range(1, 8)
        m = rng.int_range(1, 6)
        h = rng.normal_array((n, e))
        attns = np.empty((m, n))
        for i in range(m):
            raw = rng.uniform_array((n,), 0.0, 1.0) + 1e-9
            attns[i] = raw / raw.sum()
        via_average = attns.mean(axis=0) @ h
        via_branches = (attns @ h).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(via_average - via_branches))))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    report(2, "heatmap-average-identity", f"max_dev={worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_stkim_statistics():
    t0 = time.time()
    n, k, p, trials = 50, 10, 0.6, 10_000
    attn = softmax(Rng(30).normal_array((n,)))[None]  # a one-branch stack
    top = np.argsort(-attn[0], kind="stable")[:k]
    not_top = np.setdiff1d(np.arange(n), top)
    cfg = StkimConfig(count=k, prob=p)
    rng = Rng(31)
    counts = np.zeros(n)
    for _ in range(trials):
        res = stkim_mask(attn, cfg, rng, training=True)
        counts += res.zeroed[0]
        assert abs(res.attention.sum() - 1.0) < 1e-9
    freqs = counts[top] / trials
    assert np.all(np.abs(freqs - p) < 0.02), freqs
    assert counts[not_top].sum() == 0
    eval_res = stkim_mask(attn, cfg, None, training=False)
    assert np.array_equal(eval_res.attention, attn)
    assert not eval_res.zeroed.any()
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        3,
        "stkim-statistics",
        f"freq range [{freqs.min():.3f}, {freqs.max():.3f}], {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_04_single_branch_reduction():
    dims = ModelDims(feature_dim=8, embed_dim=6, attn_dim=5, branches=1, classes=3)
    model = init_model(dims, Rng.stream(404, 0))
    stkim = StkimConfig(count=10, prob=0.0)
    rng = Rng(405)
    worst = 0.0
    for i in range(100):
        n = rng.int_range(5, 25)
        bag = Bag(id=f"r{i}", instances=rng.normal_array((n, 8)), label=i % 3)
        trace = mba_forward(bag, model, stkim, rng, training=True)
        # directly coded single-head pipeline
        h = np.maximum(bag.instances @ model.embed_w.T + model.embed_b, 0.0)
        v, u, w = model.att_v[0], model.att_u[0], model.att_w[0]
        attn = softmax((np.tanh(h @ v.T) * sigmoid(h @ u.T)) @ w)
        z = attn @ h
        probs = softmax(model.bag_head_w @ z + model.bag_head_b)
        worst = max(
            worst,
            float(np.max(np.abs(trace.heatmap - attn))),
            float(np.max(np.abs(trace.bag_embedding - z))),
            float(np.max(np.abs(trace.bag_probs - probs))),
        )
    assert worst < 1e-12
    report(4, "single-branch-reduction", f"max_dev={worst:.2e} over 100 bags")


# -------------------------------------------------------------- criterion 5


@pytest.mark.slow
def test_criterion_05_mechanistic_synthetic_experiment():
    t0 = time.time()
    ds = split_dataset(generate_synthetic(SyntheticConfig()), (0.6, 0.2, 0.2), 0)
    test_bags = ds.bags_in("test")

    def run(make_cfg):
        rows = []
        for seed in range(5):
            cfg = make_cfg(seed)
            model, _ = train(ds, cfg)
            rep, _ = evaluate(model, test_bags, stkim=cfg.stkim)
            rows.append(rep)
        return {
            "auc": float(np.mean([r.macro_auc for r in rows])),
            "entropy": float(np.mean([r.mean_attention_entropy for r in rows])),
            "top10": float(np.mean([r.mean_topk_cumulative[10] for r in rows])),
            "loc": float(np.mean([r.instance_localization_auc for r in rows])),
        }

    acmil = run(lambda s: TrainConfig(seed=s))
    abmil = run(
        lambda s: TrainConfig(seed=s, branches=1, stkim=StkimConfig(count=10, prob=0.0))
    )
    elapsed = time.time() - t0
    assert acmil["auc"] >= abmil["auc"] - 0.01, (acmil, abmil)
    assert acmil["entropy"] - abmil["entropy"] >= 0.2, (acmil, abmil)
    assert acmil["top10"] < abmil["top10"], (acmil, abmil)
    assert acmil["loc"] >= abmil["loc"], (acmil, abmil)
    assert elapsed < 30 * 60
    report(
        5,
        "mechanistic-experiment",
        f"auc {acmil['auc']:.3f} vs {abmil['auc']:.3f}, "
        f"entropy +{acmil['entropy'] - abmil['entropy']:.2f} nats, "
        f"top10 {acmil['top10']:.3f} vs {abmil['top10']:.3f}, "
        f"loc {acmil['loc']:.3f} vs {abmil['loc']:.3f}, {elapsed:.0f}s",
    )


# -------------------------------------------------------------- criterion 6


@pytest.mark.slow
def test_criterion_06_diversity_loss_ablation_direction():
    t0 = time.time()
    scfg = SyntheticConfig(
        cluster_separation=3.0,
        instances_min=30,
        instances_max=80,
        bags_per_class=20,
        seed=7,
    )
    ds = split_dataset(generate_synthetic(scfg), (0.6, 0.2, 0.2), 7)
    test_bags = ds.bags_in("test")

    def mean_cosine(disable):
        vals = []
        for seed in range(5):
            cfg = TrainConfig(epochs=30, seed=seed, disable_diversity_loss=disable)
            model, _ = train(ds, cfg)
            rep, _ = evaluate(model, test_bags, stkim=cfg.stkim)
            vals.append(rep.mean_branch_heatmap_cosine)
        return float(np.mean(vals))

    with_ld = mean_cosine(disable=False)
    without_ld = mean_cosine(disable=True)
    elapsed = time.time() - t0
    assert with_ld < without_ld, (with_ld, without_ld)
    report(
        6,
        "diversity-ablation",
        f"branch cosine {with_ld:.3f} (with) < {without_ld:.3f} (without), {elapsed:.0f}s",
    )


# -------------------------------------------------------------- criterion 7


def test_criterion_07_metric_oracles():
    rng = Rng(700)
    # macro AUC against the O(n^2) pairwise oracle
    for _ in range(200):
        n = rng.int_range(2, 50)
        c = rng.int_range(2, 4)
        labels = np.array([rng.integers(c) for _ in range(n)])
        probs = np.array([[rng.integers(8) / 7.0 for _ in range(c)] for _ in range(n)])
        macro, per_class = macro_auc(probs, labels, c)
        oracle_vals = []
        for cls in range(c):
            expected = brute_force_auc(
                probs[:, cls].tolist(), (labels == cls).astype(int).tolist()
            )
            if expected is None:
                assert per_class[cls] is None
            else:
                assert abs(per_class[cls] - expected) < 1e-12
                oracle_vals.append(expected)
        if oracle_vals:
            assert abs(macro - float(np.mean(oracle_vals))) < 1e-12

    # v-measure against hand contingency-entropy evaluation, degenerate
    # conventions included
    cases = [
        ([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2]),  # perfect clustering
        ([0, 0, 0, 0], [0, 0, 1, 1]),  # one cluster: h=0, c=1, v=0
        ([0, 1, 0, 1], [0, 0, 1, 1]),  # independent: h=c=v=0
    ]
    while len(cases) < 20:
        n = rng.int_range(2, 25)
        cases.append(
            ([rng.integers(3) for _ in range(n)], [rng.integers(3) for _ in range(n)])
        )
    for clusters, labels in cases:
        got = v_measure(clusters, labels)
        expected = hand_v_measure(list(clusters), list(labels))
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-12
    assert v_measure([0, 0, 0, 0], [0, 0, 1, 1]) == (0.0, 1.0, 0.0)

    # top-k cumulative mass is monotone and reaches exactly 1 at k = N
    for _ in range(1000):
        n = rng.int_range(1, 40)
        raw = rng.uniform_array((n,), 0.0, 1.0) + 1e-9
        attn = raw / raw.sum()
        prev = 0.0
        for k in range(1, n + 1):
            mass = topk_cumulative(attn, k)
            assert mass >= prev - 1e-15
            prev = mass
        assert abs(topk_cumulative(attn, n) - 1.0) < 1e-12
    report(7, "metric-oracles", "auc x200, v-measure x20, top-k x1000")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_cli_determinism(tmp_path):
    import json

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(
        json.dumps(
            {
                "synthetic": {
                    "feature_dim": 6,
                    "patterns_per_class": 2,
                    "background_patterns": 2,
                    "bags_per_class": 8,
                    "instances_min": 8,
                    "instances_max": 16,
                    "seed": 0,
                },
                "split": {"ratios": [0.5, 0.25, 0.25]},
            }
        )
    )
    data = tmp_path / "data.json"
    assert main(["gen-data", "--config", str(gen_cfg), "--out", str(data)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(
        json.dumps(
            {
                "train": {
                    "epochs": 3,
                    "branches": 3,
                    "embed_dim": 6,
                    "attn_dim": 6,
                    "stkim": {"count": 3, "prob": 0.6},
                }
            }
        )
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["train", "--data", str(data), "--config", str(train_cfg),
                     "--seed", "7", "--out", str(out)]) == 0
        outs.append(out)
    for name in ("checkpoint.json", "history.csv", "report.json"):
        assert outs[0].joinpath(name).read_bytes() == outs[1].joinpath(name).read_bytes(), name
    report(8, "cli-determinism", "checkpoint, history and report byte-identical")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_masking_strategy_presets(tmp_path, caplog):
    import json

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(
        json.dumps(
            {
                # bags of 20..60 instances: all below the 95-instance mask size,
                # so the full-probability preset hits the degenerate path
                "synthetic": {
                    "feature_dim": 6,
                    "patterns_per_class": 2,
                    "background_patterns": 2,
                    "bags_per_class": 8,
                    "instances_min": 20,
                    "instances_max": 60,
                    "seed": 1,
                },
                "split": {"ratios": [0.5, 0.25, 0.25]},
            }
        )
    )
    data = tmp_path / "data.json"
    assert main(["gen-data", "--config", str(gen_cfg), "--out", str(data)]) == 0
    base_cfg = tmp_path / "train.json"
    base_cfg.write_text(
        json.dumps({"train": {"epochs": 2, "branches": 2, "embed_dim": 6, "attn_dim": 6}})
    )
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"presets": ["stkim", "weno", "mhim"], "n_seeds": 1}))
    out = tmp_path / "sweep"
    with caplog.at_level(logging.INFO, logger="acmil.mil"):
        rc = main(["ablate", "--data", str(data), "--config", str(base_cfg),
                   "--grid", str(grid), "--out", str(out)])
    assert rc == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + three presets
    header = lines[0].split(",")
    idx_ok = header.index("n_ok")
    idx_auc = header.index("macro_auc_mean")
    idx_err = header.index("errors")
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[idx_ok] == "1", line
        assert cols[idx_auc] != "", line
        assert cols[idx_err] == "", line
    assert {l.split(",")[0] for l in lines[1:]} == {
        "preset-stkim",
        "preset-weno",
        "preset-mhim",
    }
    # the weno preset (mask 95 instances with probability 1) must have hit the
    # discard-and-fall-back path on these small bags
    assert any("mask discarded" in rec.message for rec in caplog.records)
    report(9, "masking-presets", "stkim/weno/mhim complete; degenerate path exercised")
