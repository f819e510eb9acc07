"""Gradient correctness against the central-difference oracle."""

import numpy as np

from acmil.gradcheck import check_gradients, run_suite, max_suite_error
from acmil.model import ModelDims


def test_gradients_match_finite_differences_across_settings():
    # 20 random (model, bag, seed) triples spanning branch counts, class
    # counts and masking probabilities, plus non-square cases where N, D, E,
    # L, M and C all differ, so a swapped transpose or a mixed-up axis in the
    # stacked layout cannot cancel out
    cases = []
    seed = 0
    for m in (1, 3, 5):
        for c in (2, 4):
            for p in (0.0, 0.6):
                dims = ModelDims(feature_dim=8, embed_dim=4, attn_dim=4, branches=m, classes=c)
                cases.append((seed, dims, p, 6))
                seed += 1
    dims = ModelDims(feature_dim=8, embed_dim=4, attn_dim=4, branches=5, classes=4)
    cases += [(seed + i, dims, 0.6, 6) for i in range(max(0, 20 - len(cases)))]
    non_square = ModelDims(feature_dim=8, embed_dim=6, attn_dim=5, branches=4, classes=3)
    cases += [(20, non_square, 0.0, 7), (21, non_square, 0.6, 7)]
    worst = 0.0
    for seed, dims, p, n in cases:
        err = check_gradients(seed, dims=dims, n_instances=n, mask_prob=p, eps=1e-4)
        worst = max(worst, err)
    assert worst < 1e-5


def test_gradcheck_suite_reports_per_case_results():
    results = run_suite([0, 1], probs=(0.0, 0.6))
    assert len(results) == 4
    assert max_suite_error(results) < 1e-5
    assert {r.mask_prob for r in results} == {0.0, 0.6}


def test_gradcheck_is_deterministic():
    a = check_gradients(3, mask_prob=0.6)
    b = check_gradients(3, mask_prob=0.6)
    assert a == b


def test_eps_sweep_central_differences_best_near_1e_4():
    # documented expectation: error is minimised near eps = 1e-4 relative to
    # the cruder 1e-2 step for 64-bit central differences
    errs = {eps: check_gradients(1, mask_prob=0.0, eps=eps) for eps in (1e-2, 1e-4)}
    assert errs[1e-4] < errs[1e-2]
    assert np.isfinite(errs[1e-2])
