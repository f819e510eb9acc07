import math

import numpy as np
import pytest

from acmil.metrics import (
    _rank_with_ties,
    attention_entropy,
    binary_auc,
    instance_localization_auc,
    kmeans,
    macro_auc,
    macro_f1,
    topk_cumulative,
    v_measure,
)
from acmil.rng import Rng


def brute_force_auc(scores, labels):
    """O(n^2) pairwise oracle: wins + half-ties over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_ranks(values):
    """Reference: walk the sorted values, averaging each block of ties."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------- auc


@pytest.mark.parametrize("n", [1, 2, 7, 150, 2000])
def test_ranks_match_the_loop_reference_exactly(n):
    rng = Rng(n)
    for values in (rng.normal_array((n,)),
                   np.floor(rng.uniform_array((n,), 0.0, 5.0)),  # tied blocks
                   np.full(n, 0.25)):
        assert np.array_equal(_rank_with_ties(values), loop_ranks(values))


def test_binary_auc_perfect_separation():
    assert binary_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_binary_auc_constant_scores():
    assert binary_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_binary_auc_six_bag_hand_case():
    cases = [
        ([0.1, 0.4, 0.35, 0.8, 0.65, 0.9], [0, 0, 1, 1, 0, 1]),
        ([0.4, 0.1, 0.4, 0.9, 0.1, 0.4, 0.9], [1, 0, 0, 1, 1, 0, 1]),  # tied blocks
        ([0.3] * 7, [1, 0, 0, 1, 1, 0, 1]),  # all equal
    ]
    for scores, labels in cases:
        expected = brute_force_auc(scores, labels)
        assert binary_auc(scores, labels) == pytest.approx(expected, abs=1e-12)


def test_binary_auc_single_class_absent():
    assert binary_auc([0.1, 0.2], [1, 1]) is None


def test_macro_auc_matches_brute_force_oracle():
    rng = Rng(123)
    for _ in range(200):
        n = rng.int_range(2, 50)
        c = rng.int_range(2, 4)
        labels = np.array([rng.integers(c) for _ in range(n)])
        # quantised scores force ties
        probs = np.array([[rng.integers(8) / 7.0 for _ in range(c)] for _ in range(n)])
        macro, per_class = macro_auc(probs, labels, c)
        expected = []
        for cls in range(c):
            oracle = brute_force_auc(probs[:, cls].tolist(), (labels == cls).astype(int).tolist())
            if per_class[cls] is None:
                assert oracle is None
            else:
                assert per_class[cls] == pytest.approx(oracle, abs=1e-12)
                expected.append(oracle)
        if expected:
            assert macro == pytest.approx(float(np.mean(expected)), abs=1e-12)
        else:
            assert macro is None


def test_macro_auc_invariant_under_increasing_transform():
    rng = Rng(9)
    labels = np.array([rng.integers(3) for _ in range(30)])
    probs = np.array([[rng.uniform() for _ in range(3)] for _ in range(30)])
    base, _ = macro_auc(probs, labels, 3)
    transformed, _ = macro_auc(np.exp(2.0 * probs) + 1.0, labels, 3)
    assert transformed == pytest.approx(base, abs=1e-12)


def test_macro_auc_skips_absent_class():
    probs = np.array([[0.9, 0.05, 0.05], [0.2, 0.7, 0.1], [0.3, 0.6, 0.1]])
    labels = np.array([0, 1, 1])  # class 2 never appears
    macro, per_class = macro_auc(probs, labels, 3)
    assert per_class[2] is None
    assert macro == pytest.approx(np.mean([per_class[0], per_class[1]]), abs=1e-12)


# ---------------------------------------------------------------- f1


def test_macro_f1_perfect():
    labels = [0, 1, 2, 0, 1, 2]
    assert macro_f1(labels, labels, 3)[0] == 1.0


def test_macro_f1_absent_class_counts_as_zero():
    # class 2 never predicted and never true: F1 = 0 by the 0/0 convention
    macro, per_class = macro_f1([0, 1, 0, 1], [0, 1, 1, 0], 3)
    assert per_class[2] == 0.0
    assert macro == pytest.approx(np.mean(per_class), abs=1e-15)


def test_macro_f1_hand_confusion_matrix():
    labels = [0, 0, 0, 1, 1, 1]
    preds = [0, 0, 1, 0, 1, 1]
    macro, per_class = macro_f1(preds, labels, 2)
    assert per_class[0] == pytest.approx(2 / 3, abs=1e-12)
    assert per_class[1] == pytest.approx(2 / 3, abs=1e-12)
    assert macro == pytest.approx(2 / 3, abs=1e-12)


# ---------------------------------------------------------------- entropy / top-k


def test_entropy_uniform_and_one_hot():
    for n in (2, 5, 100):
        assert attention_entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n), abs=1e-12)
    assert attention_entropy([0.0, 1.0, 0.0]) == 0.0


def test_entropy_hand_case():
    assert attention_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2), abs=1e-12)


def test_entropy_bounded_by_log_n():
    rng = Rng(21)
    for _ in range(100):
        n = rng.int_range(2, 40)
        raw = rng.uniform_array((n,), 0.0, 1.0) + 1e-9
        attn = raw / raw.sum()
        assert attention_entropy(attn) <= math.log(n) + 1e-9


def test_topk_cases():
    assert topk_cumulative([0.2, 0.3, 0.5], 5) == pytest.approx(1.0, abs=1e-12)
    assert topk_cumulative(np.full(100, 0.01), 10) == pytest.approx(0.1, abs=1e-12)
    assert topk_cumulative([0.5, 0.3, 0.2], 2) == pytest.approx(0.8, abs=1e-12)


def test_topk_monotone_in_k():
    rng = Rng(2)
    for _ in range(100):
        n = rng.int_range(1, 30)
        raw = rng.uniform_array((n,), 0.0, 1.0) + 1e-9
        attn = raw / raw.sum()
        masses = [topk_cumulative(attn, k) for k in range(1, n + 1)]
        assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- kmeans


def test_kmeans_single_cluster():
    pts = Rng(1).normal_array((8, 3))
    assert set(kmeans(pts, 1, seed=0).tolist()) == {0}


def test_kmeans_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    assign = kmeans(pts, 2, seed=3)
    assert assign[0] == assign[1]
    assert assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_kmeans_beats_random_assignments():
    rng = Rng(4)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    pts = np.vstack([c + rng.normal_array((4, 2)) for c in centers])

    def wcss(assign):
        total = 0.0
        for j in set(assign.tolist()):
            members = pts[assign == j]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        return total

    ours = wcss(kmeans(pts, 3, seed=0))
    for _ in range(1000):
        random_assign = np.array([rng.integers(3) for _ in range(len(pts))])
        assert ours <= wcss(random_assign) + 1e-9


def test_kmeans_deterministic():
    pts = Rng(6).normal_array((30, 4))
    assert np.array_equal(kmeans(pts, 3, seed=11), kmeans(pts, 3, seed=11))


# ---------------------------------------------------------------- v-measure


def hand_v_measure(clusters, labels):
    """Independent contingency-entropy evaluation."""
    n = len(labels)
    cl_ids = sorted(set(clusters))
    la_ids = sorted(set(labels))

    def ent(groups):
        h = 0.0
        for g in groups:
            p = g / n
            if p > 0:
                h -= p * math.log(p)
        return h

    h_class = ent([labels.count(l) for l in la_ids])
    h_cluster = ent([clusters.count(c) for c in cl_ids])
    h_c_given_k = 0.0
    for c in cl_ids:
        members = [l for cc, l in zip(clusters, labels) if cc == c]
        sub = 0.0
        for l in la_ids:
            p = members.count(l) / len(members)
            if p > 0:
                sub -= p * math.log(p)
        h_c_given_k += len(members) / n * sub
    h_k_given_c = 0.0
    for l in la_ids:
        members = [cc for cc, ll in zip(clusters, labels) if ll == l]
        sub = 0.0
        for c in cl_ids:
            p = members.count(c) / len(members)
            if p > 0:
                sub -= p * math.log(p)
        h_k_given_c += len(members) / n * sub
    h = 1.0 if h_class == 0 else 1.0 - h_c_given_k / h_class
    c = 1.0 if h_cluster == 0 else 1.0 - h_k_given_c / h_cluster
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v


def test_v_measure_identity_clustering():
    h, c, v = v_measure([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2])
    assert (h, c, v) == (1.0, 1.0, 1.0)


def test_v_measure_single_cluster_convention():
    h, c, v = v_measure([0, 0, 0, 0], [0, 0, 1, 1])
    assert h == 0.0
    assert c == 1.0
    assert v == 0.0


def test_v_measure_independent_labels_gives_zero():
    h, c, v = v_measure([0, 1, 0, 1], [0, 0, 1, 1])
    assert h == pytest.approx(0.0, abs=1e-12)
    assert c == pytest.approx(0.0, abs=1e-12)
    assert v == 0.0


def test_v_measure_hand_contingency_case():
    clusters = [0, 0, 1, 1]
    labels = [0, 0, 0, 1]  # contingency [[2, 0], [1, 1]]
    got = v_measure(clusters, labels)
    expected = hand_v_measure(clusters, labels)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-12)


def test_v_measure_matches_oracle_on_random_cases():
    rng = Rng(33)
    for _ in range(20):
        n = rng.int_range(2, 30)
        clusters = [rng.integers(3) for _ in range(n)]
        labels = [rng.integers(3) for _ in range(n)]
        got = v_measure(clusters, labels)
        expected = hand_v_measure(clusters, labels)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-12)


def test_v_measure_invariant_under_cluster_relabeling():
    rng = Rng(44)
    clusters = [rng.integers(3) for _ in range(25)]
    labels = [rng.integers(3) for _ in range(25)]
    relabeled = [(c + 1) % 3 for c in clusters]
    assert v_measure(clusters, labels) == pytest.approx(v_measure(relabeled, labels), abs=1e-12)


# ---------------------------------------------------------------- localization


def test_localization_uniform_attention():
    attn = np.full(6, 1 / 6)
    labels = [0, 1, 0, 2, 0, 0]
    assert instance_localization_auc(attn, labels) == 0.5


def test_localization_perfectly_supported_attention():
    attn = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    labels = [0, 1, 0, 2, 0]
    assert instance_localization_auc(attn, labels) == 1.0


def test_localization_five_instance_hand_case():
    attn = np.array([0.4, 0.1, 0.2, 0.2, 0.1])
    labels = [1, 0, 2, 0, 0]
    expected = brute_force_auc(attn.tolist(), [1 if l >= 1 else 0 for l in labels])
    assert instance_localization_auc(attn, labels) == pytest.approx(expected, abs=1e-12)


def test_localization_single_class_is_absent():
    assert instance_localization_auc(np.full(4, 0.25), [0, 0, 0, 0]) is None
