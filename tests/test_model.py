"""Parameter layout, initialisation and checkpoint compatibility."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from acmil import jsonio
from acmil.bags import Bag
from acmil.errors import ConfigError
from acmil.mil import StkimConfig, mba_forward
from acmil.model import ModelDims, Params, init_model, load_checkpoint, save_checkpoint
from acmil.rng import Rng

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE, FIXTURE_V1 = FIXTURES / "checkpoint_v2.json", FIXTURES / "checkpoint_v1.json"


@pytest.mark.parametrize(
    "branches, n_tensors, n_values, digest",
    [
        (5, 29, 85_452, "71c8f2eb1b767410a9b159e4f1cb0fe839281fc4b2546098719c1160448e2583"),
        (1, 9, 18_884, "2c7c53c6847ec370f32c1c01e1b3eb7bf5c973d1f29531020e28c95ef742c3ac"),
    ],
)
def test_initial_parameters_are_pinned(branches, n_tensors, n_values, digest):
    # the digests were taken before the parameters moved into one flat
    # buffer: draw order, values and checkpoint tensor order must not move
    model = init_model(ModelDims(32, 64, 128, branches, 2), Rng.stream(0, 0), "relu", seed=0)
    params = model.parameters()
    assert len(params) == n_tensors
    assert model.flat.size == sum(p.size for _, p in params) == n_values
    assert hashlib.sha256(b"".join(p.tobytes() for _, p in params)).hexdigest() == digest


def test_parameters_are_views_into_the_flat_buffer():
    dims = ModelDims(feature_dim=5, embed_dim=4, attn_dim=3, branches=2, classes=3)
    p = Params(dims)
    p.flat[:] = np.arange(p.flat.size)
    for _, view in p.parameters():
        assert np.shares_memory(view, p.flat)
    # [V; U] stacks every branch's V rows, then every branch's U rows
    assert p.att_vu.shape == (2, 6, 4)
    assert np.array_equal(p.att_vu[0, :3], p.att_v[0])
    assert np.array_equal(p.att_vu[0, 3:], p.att_v[1])
    assert np.array_equal(p.att_vu[1, :3], p.att_u[0])
    p.att_vu[0, 4, 2] = -1.0
    assert p.att_v[1][1, 2] == -1.0
    for bad in (np.zeros(5), np.zeros(2 * p.flat.size)[::2], p.flat.astype(np.float32)):
        with pytest.raises(ValueError):
            Params(dims, bad)


def test_copy_is_independent():
    model = init_model(ModelDims(3, 4, 5, 2, 2), Rng.stream(1, 0))
    clone = model.copy()
    clone.att_w[1] += 1.0
    assert not np.array_equal(clone.att_w, model.att_w)
    assert np.array_equal(clone.att_v, model.att_v)


def test_first_nonfinite_names_the_tensor():
    p = Params(ModelDims(3, 4, 5, 3, 2))
    assert p.first_nonfinite() is None
    p.flat[:] = 1e308  # finite values whose sum is Inf: the element check decides
    assert p.first_nonfinite() is None
    p.head_b[2, 1] = np.nan
    assert p.first_nonfinite() == "branch2.head_b"


def test_checkpoint_from_before_the_flat_layout_round_trips(tmp_path):
    # written by the per-branch implementation after three Adam steps, as 17-digit
    # floats (version 1), and re-saved packed (version 2) by the last release that read
    # version 1: the packed values are the 17-digit ones bit for bit, in the same order
    model, cfg = load_checkpoint(FIXTURE)
    assert cfg["batch_size"] == 1  # configs are stored verbatim
    v1 = json.loads(FIXTURE_V1.read_text())
    assert [name for name, _ in model.parameters()] == list(v1["params"])
    for name, p in model.parameters():
        assert p.tobytes() == np.array(v1["params"][name], np.float64).tobytes()
    packed = jsonio.load(FIXTURE)
    assert packed["format_version"] == 2 and v1["format_version"] == 1
    assert {k: v for k, v in packed.items() if k not in ("format_version", "params")} == {
        k: v for k, v in v1.items() if k not in ("format_version", "params")}
    # load -> save reproduces the fixture's bytes
    out = tmp_path / "resaved.json"
    save_checkpoint(model, out, config=cfg)
    assert out.read_bytes() == FIXTURE.read_bytes()

    # and it computes what it computed when it was written
    bag = Bag(id="probe", instances=Rng.stream(21, 99).normal_array((9, 5)), label=0)
    trace = mba_forward(bag, model, StkimConfig(count=0, prob=0.0), None, training=False)
    want_bag = [0.196239819967018, 0.39628313014859906, 0.18256834088698667, 0.22490870899739621]
    want_branch = [
        [0.16756510980494363, 0.37650076958661161, 0.14927572056847965, 0.30665840003996508],
        [0.25601642995155482, 0.19378452041432706, 0.14396459464783215, 0.40623445498628608],
        [0.33711129570939219, 0.24567050673777285, 0.26837237549434745, 0.14884582205848743],
    ]
    assert np.max(np.abs(trace.bag_probs - want_bag)) < 1e-12
    assert np.max(np.abs(trace.branch_probs - want_branch)) < 1e-12


def test_loading_a_checkpoint_peaks_below_five_times_its_parameter_bytes(tmp_path):
    # the parameters are not held as Python lists of floats, at 32 bytes per value
    model = init_model(ModelDims(32, 64, 128, 5, 2), Rng.stream(0, 0), "relu", seed=0)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, path)
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert peak < 5 * model.flat.nbytes


def test_dims_refuse_more_parameters_than_an_array_can_index():
    # E = L = M = 1, C = 2: D + 12 parameters, and at most intp.max // 8 fit
    most = np.iinfo(np.intp).max // 8
    ModelDims(most - 12, 1, 1, 1, 2)
    with pytest.raises(ConfigError, match=f"dims: {most + 1} parameters take more"):
        ModelDims(most - 11, 1, 1, 1, 2)
