import base64
import contextlib
import csv
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmil
from acmil import jsonio
from acmil.cli import main
from acmil.data import load_dataset


FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "checkpoint_v2.json"

TINY_SYNTH = {
    "feature_dim": 6,
    "patterns_per_class": 2,
    "background_patterns": 2,
    "bags_per_class": 8,
    "instances_min": 8,
    "instances_max": 16,
    "seed": 0,
}

TINY_TRAIN = {
    "epochs": 2,
    "branches": 2,
    "embed_dim": 6,
    "attn_dim": 6,
    "stkim": {"count": 3, "prob": 0.5},
    "seed": 0,
}


def write_json(path, doc):
    """``doc`` as JSON text; a string is written as it is."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def with_raw(doc, text: str) -> str:
    """``doc`` as JSON text with the string ``"@"`` replaced by ``text``,
    for values the encoder never writes (``1e400``)."""
    return json.dumps(doc).replace('"@"', text)


def dataset_text(doc, raw: str = "@") -> str:
    """``doc``, a header whose ``bags`` are the bag records, as a dataset file: the
    header with the bag count on the first line, then one record per line; ``"@"``
    replaced as by ``with_raw``."""
    header = {**doc, "bags": len(doc["bags"])}
    return "".join(with_raw(part, raw) + "\n" for part in [header, *doc["bags"]])


def bag(bag_id: str, label: int, split: str, rows, **extra) -> dict:
    """A bag record whose instances are ``rows`` packed."""
    return {"id": bag_id, "label": label, "split": split, **extra,
            "instances": jsonio.pack(rows)}


@pytest.fixture()
def tiny_data(tmp_path):
    cfg = write_json(tmp_path / "gen.json", {"synthetic": TINY_SYNTH,
                                             "split": {"ratios": [0.5, 0.25, 0.25]}})
    data = tmp_path / "data.json"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    return data


def test_gen_data_default_config_counts(tmp_path):
    out = tmp_path / "default.json"
    assert main(["gen-data", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds.bags) == 120
    assert sum(1 for b in ds.bags if b.label == 0) == 60


def test_gen_data_is_reproducible(tmp_path):
    cfg = write_json(tmp_path / "gen.json", {"synthetic": TINY_SYNTH})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-data", "--config", cfg, "--out", str(a)]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_invalid_ratios_exits_nonzero(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "gen.json",
        {"synthetic": TINY_SYNTH, "split": {"ratios": [0.5, 0.2, 0.2]}},
    )
    rc = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.json")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error:config:")
    assert "ratios" in err
    assert len(err.strip().split("\n")) == 1


def test_train_writes_expected_outputs(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": TINY_TRAIN})
    out = tmp_path / "run"
    assert main(["train", "--data", str(tiny_data), "--config", cfg, "--out", str(out)]) == 0
    for name in ("config.json", "checkpoint.json", "history.csv", "report.json",
                 "report_row.csv", "attention.json", "embeddings.json"):
        assert (out / name).exists(), name
    report = jsonio.load(out / "report.json")
    assert report["variant"] == "acmil"
    assert "macro_auc" in report["metrics"]


def test_train_is_byte_deterministic(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": TINY_TRAIN})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train", "--data", str(tiny_data), "--config", cfg,
                     "--seed", "0", "--out", str(out)]) == 0
    for name in ("checkpoint.json", "history.csv", "report.json", "config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_labels_single_branch_unmasked_as_abmil(tiny_data, tmp_path):
    doc = {"train": dict(TINY_TRAIN, branches=1, stkim={"count": 10, "prob": 0.0})}
    cfg = write_json(tmp_path / "train.json", doc)
    out = tmp_path / "abmil"
    assert main(["train", "--data", str(tiny_data), "--config", cfg, "--out", str(out)]) == 0
    assert jsonio.load(out / "report.json")["variant"] == "abmil"


def test_train_missing_split_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "gen.json", {"synthetic": TINY_SYNTH,
                                             "split": {"ratios": [0.9, 0.1, 0.0]}})
    data = tmp_path / "data.json"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:config:")


def test_eval_matches_train_report(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": TINY_TRAIN})
    out = tmp_path / "run"
    assert main(["train", "--data", str(tiny_data), "--config", cfg, "--out", str(out)]) == 0
    eval_out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--data", str(tiny_data), "--out", str(eval_out)]) == 0
    train_metrics = jsonio.load(out / "report.json")["metrics"]
    eval_metrics = jsonio.load(eval_out / "report.json")["metrics"]
    assert eval_metrics == train_metrics


def test_eval_stkim_flag_with_p_zero_matches_plain_eval(tiny_data, tmp_path):
    doc = {"train": dict(TINY_TRAIN, stkim={"count": 3, "prob": 0.0})}
    cfg = write_json(tmp_path / "train.json", doc)
    out = tmp_path / "run"
    assert main(["train", "--data", str(tiny_data), "--config", cfg, "--out", str(out)]) == 0
    plain, masked = tmp_path / "plain", tmp_path / "masked"
    ckpt = str(out / "checkpoint.json")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tiny_data),
                 "--out", str(plain)]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tiny_data),
                 "--stkim-at-eval", "--out", str(masked)]) == 0
    assert (plain / "report.json").read_bytes() == (masked / "report.json").read_bytes()


def test_ablate_grid_bookkeeping(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": TINY_TRAIN})
    grid = write_json(tmp_path / "grid.json", {"M": [1, 2], "n_seeds": 2})
    out = tmp_path / "sweep"
    assert main(["ablate", "--data", str(tiny_data), "--config", cfg,
                 "--grid", grid, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 cells
    header = lines[0].split(",")
    assert "macro_auc_mean" in header and "macro_auc_std" in header
    run_dirs = sorted((out / "cells").glob("*/seed*"))
    assert len(run_dirs) == 4


def test_ablate_summary_has_a_mass_column_per_configured_k(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": {**TINY_TRAIN, "topk_list": [5, 1]}})
    grid = write_json(tmp_path / "grid.json", {"M": [1], "n_seeds": 2})
    out = tmp_path / "sweep"
    assert main(["ablate", "--data", str(tiny_data), "--config", cfg,
                 "--grid", grid, "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    masses = [c for c in row if "_mass_" in c]
    assert masses == ["top1_mass_mean", "top1_mass_std", "top5_mass_mean", "top5_mass_std"]
    assert row["n_ok"] == "2"
    assert all(row[c] != "" for c in masses)


def test_resolved_config_reloads_to_identical_run(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": TINY_TRAIN})
    first = tmp_path / "first"
    assert main(["train", "--data", str(tiny_data), "--config", cfg, "--out", str(first)]) == 0
    replay = tmp_path / "replay"
    assert main(["train", "--data", str(tiny_data),
                 "--config", str(first / "config.json"), "--out", str(replay)]) == 0
    for name in ("checkpoint.json", "history.csv", "report.json"):
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name


def test_ablate_parallel_jobs_match_sequential(tiny_data, tmp_path):
    cfg = write_json(tmp_path / "train.json", {"train": TINY_TRAIN})
    grid = write_json(tmp_path / "grid.json", {"p": [0.0, 0.6], "n_seeds": 1})
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["ablate", "--data", str(tiny_data), "--config", cfg,
                 "--grid", grid, "--out", str(seq)]) == 0
    assert main(["ablate", "--data", str(tiny_data), "--config", cfg,
                 "--grid", grid, "--jobs", "2", "--out", str(par)]) == 0
    assert (seq / "summary.csv").read_text() == (par / "summary.csv").read_text()


def test_ablate_workers_hold_openblas_at_one_thread(monkeypatch):
    calls = []
    monkeypatch.setattr(acmil.numerics, "_openblas", lambda: (lambda: 2, calls.append))
    monkeypatch.setattr(acmil.cli, "_worker_dataset", None)
    acmil.cli._init_worker("dataset")
    assert calls == [1] and acmil.cli._worker_dataset == "dataset"


def test_ablate_unknown_axis_fails(tiny_data, tmp_path, capsys):
    grid = write_json(tmp_path / "grid.json", {"gamma": [1]})
    rc = main(["ablate", "--data", str(tiny_data), "--grid", grid,
               "--out", str(tmp_path / "s")])
    assert rc != 0
    assert "gamma" in capsys.readouterr().err


def test_grad_check_command_passes(capsys):
    rc = main(["grad-check", "--seeds", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max relative error" in out


def test_grad_check_reports_failure_for_huge_eps(capsys):
    # eps far too large makes central differences inaccurate; the command
    # must exit nonzero rather than claim success
    rc = main(["grad-check", "--seeds", "1", "--eps", "10.0"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_directory_passed_as_a_file_is_one_io_error_line(tiny_data, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    runs = [
        ["train", "--data", str(folder), "--out", str(tmp_path / "run")],
        ["eval", "--checkpoint", str(folder), "--data", str(tiny_data),
         "--out", str(tmp_path / "eval")],
        ["eval", "--checkpoint", str(FIXTURE), "--data", str(folder),
         "--out", str(tmp_path / "eval")],
    ]
    for argv in runs:
        assert main(argv) != 0
        err = capsys.readouterr().err
        assert err.startswith("error:io:")
        assert len(err.splitlines()) == 1


GOOD_DATASET = {
    "format": "acmil-dataset", "format_version": 3, "feature_dim": 2, "num_classes": 2,
    "bags": [bag("b0", 0, "train", [[0.5, 1.5]])],
}
NO_FEATURE_DIM = {k: v for k, v in GOOD_DATASET.items() if k != "feature_dim"}
BAD_LABEL = dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0], label="x")])
FIXTURE_DOC = jsonio.load(FIXTURE)
OLD_CHECKPOINT = (FIXTURES / "checkpoint_v1.json").read_text()
NO_DIMS = {k: v for k, v in FIXTURE_DOC.items() if k != "dims"}
TOPK_ZERO = dict(FIXTURE_DOC, config=dict(FIXTURE_DOC["config"], topk_list=[0]))
TOPK_REPEATED = dict(FIXTURE_DOC, config=dict(FIXTURE_DOC["config"], topk_list=[10, 5, 10]))
STRING_PROB = dict(FIXTURE_DOC, config=dict(FIXTURE_DOC["config"],
                                            stkim={"count": 10, "prob": "x"}))
RAW_LABEL = dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0], label="@")])
BOOL_FEATURE = dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0], instances=[[True, 1.5]])])
RAW_DIM = dict(FIXTURE_DOC, dims=dict(FIXTURE_DOC["dims"], feature_dim="@"))
EIGHT_BAGS = dict(GOOD_DATASET, bags=[
    bag(f"b{i}", i % 2, split, [[0.5, 1.5], [i, -1.0]])
    for i, split in enumerate(["train"] * 4 + ["val"] * 2 + ["test"] * 2)])
# bag ids that are not strings, which str() would turn into '5' and 'None'
NUMBER_AND_NULL_IDS = dict(GOOD_DATASET, bags=[bag(5, 0, "train", [[0.5, 1.5]]),
                                               bag(None, 1, "val", [[1.0, 2.0]])])
FOUR_CLASS_MODEL_FIVE_CLASS_DATA = dict(GOOD_DATASET, feature_dim=5, num_classes=5, bags=[
    bag("b0", 4, "test", [[0.5] * 5])])


def packed_dataset(instances: str) -> str:
    """GOOD_DATASET as a file whose one bag's instances are ``instances``."""
    return dataset_text(dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0],
                                                      instances=instances)]))


def good_dataset(**header) -> str:
    """GOOD_DATASET as a file, with ``header`` in place of its own values."""
    return dataset_text(dict(GOOD_DATASET, **header))


def checkpoint_with(**params) -> dict:
    """The fixture, with ``params`` in place of its own."""
    return dict(FIXTURE_DOC, params={**FIXTURE_DOC["params"], **params})


def b64(*values: float) -> str:
    """``values`` as little-endian float64 in base64, which ``pack`` refuses for NaN."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


# (command, config, grid, dataset, checkpoint, error prefix, text the line names,
#  *extra flags); a dataset of NO_FLAG leaves out the --data flag, and grad-check
#  takes only the extra flags
NO_FLAG = "no flag"
ERROR_CASES = {
    "misspelt-section": ("train", {"trian": {"epochs": 1}}, None, None, None,
                         "error:config:", "trian"),
    "unknown-stkim-key": ("train", {"train": {"stkim": {"cnt": 3}}}, None, None, None,
                          "error:config:", "train.stkim.cnt"),
    "string-epochs": ("train", {"train": {"epochs": "3"}}, None, None, None,
                      "error:config:", "train.epochs"),
    "bool-for-int": ("train", {"train": {"branches": True}}, None, None, None,
                     "error:config:", "train.branches"),
    "nan-float": ("train", {"train": {"lr0": float("nan")}}, None, None, None,
                  "error:config:", "train.lr0"),
    "topk-zero": ("train", {"train": {"topk_list": [0]}}, None, None, None,
                  "error:config:", "topk_list"),
    "topk-repeated": ("train", {"train": {"topk_list": [10, 10]}}, None, None, None,
                      "error:config:", "train.topk_list entries must be distinct"),
    "ablate-topk-repeated": ("ablate", {"train": {"topk_list": [5, 5]}}, {"M": [1]}, None, None,
                             "error:config:", "train.topk_list entries must be distinct"),
    "beta1-one": ("train", {"train": {"beta1": 1}}, None, None, None,
                  "error:config:", "beta1"),
    "string-export": ("train", {"export_attention": "false"}, None, None, None,
                      "error:config:", "export_attention"),
    "grid-string-M": ("ablate", None, {"M": ["a"]}, None, None,
                      "error:config:", "grid[Ma].branches"),
    "grid-string-n-seeds": ("ablate", None, {"M": [1], "n_seeds": "2"}, None, None,
                            "error:config:", "grid.n_seeds"),
    "gen-data-unknown-key": ("gen-data", {"synthetic": {}, "splits": {}}, None, None, None,
                             "error:config:", "splits"),
    "gen-data-bag-over-2-to-the-64": ("gen-data", {"synthetic": {"instances_max": 2**65}},
                                      None, None, None, "error:config:",
                                      "synthetic.instances_max: 36893488147419103232 rows"),
    "gen-data-feature-dim-2-to-the-62": ("gen-data", {"synthetic": {"feature_dim": 2**62}},
                                         None, None, None, "error:config:",
                                         "more float64 bytes than an array can index"),
    "gen-data-bags-of-2-to-the-70": ("gen-data", {"synthetic": {"instances_min": 2**70,
                                                                "instances_max": 2**70}},
                                     None, None, None, "error:config:",
                                     "synthetic.instances_max: 1180591620717411303424 rows"),
    "gen-data-string-split-seed": ("gen-data", {"split": {"seed": "x"}}, None, None, None,
                                   "error:config:", "split.seed"),
    "dataset-missing-key": ("train", None, None, NO_FEATURE_DIM, None,
                            "error:data-format:", "feature_dim"),
    "dataset-bad-label": ("train", None, None, BAD_LABEL, None,
                          "error:data-format:", "malformed dataset"),
    "checkpoint-missing-key": ("eval", None, None, GOOD_DATASET, NO_DIMS,
                               "error:data-format:", "dims"),
    "checkpoint-topk-zero": ("eval", None, None, GOOD_DATASET, TOPK_ZERO,
                             "error:config:", "checkpoint config.topk_list"),
    "checkpoint-topk-repeated": ("eval", None, None, GOOD_DATASET, TOPK_REPEATED,
                                 "error:config:",
                                 "checkpoint config.topk_list entries must be distinct"),
    "checkpoint-string-prob": ("eval", None, None, GOOD_DATASET, STRING_PROB,
                               "error:config:", "checkpoint config.stkim.prob"),
    "epochs-zero": ("train", {"train": {"epochs": 0}}, None, None, None,
                    "error:config:", "train.epochs must be >= 1"),
    "grid-prob-two": ("ablate", None, {"M": [1], "p": [2]}, None, None,
                      "error:config:", "grid[M1-p2].stkim.prob must lie in [0, 1]"),
    "missing-data-flag": ("train", None, None, NO_FLAG, None,
                          "error:config:", "required: --data"),
    "ablate-jobs-zero": ("ablate", None, {"M": [1]}, None, None,
                         "error:config:", "--jobs must be >= 1", "--jobs", "0"),
    "ablate-missing-split": ("ablate", None, {"M": [1]}, None, None,
                             "error:config:", "no bags in the 'val' split"),
    "label-1e400": ("train", None, None, dataset_text(RAW_LABEL, "1e400"), None,
                    "error:data-format:", "bag 'b0' label: expected an integer, got a number"),
    "label-1.5": ("train", None, None, dataset_text(RAW_LABEL, "1.5"), None,
                  "error:data-format:", "bag 'b0' label: expected an integer, got a number"),
    "feature-true": ("train", None, None, BOOL_FEATURE, None,
                     "error:data-format:",
                     "bag 'b0' instances: expected a packed string, got an array"),
    "dataset-version-1": ("train", None, None, (FIXTURES / "dataset_v1.json").read_text(), None,
                          "error:data-format:",
                          "unsupported dataset version 1; this release reads version 3"),
    "dataset-version-2": ("train", None, None, (FIXTURES / "dataset_v2.json").read_text(), None,
                          "error:data-format:",
                          "unsupported dataset version 2; this release reads version 3"),
    "dataset-version-true": ("train", None, None, good_dataset(format_version=True), None,
                             "error:data-format:",
                             "format_version: expected an integer, got a boolean"),
    "dataset-version-3.0": ("train", None, None, good_dataset(format_version=3.0), None,
                            "error:data-format:",
                            "format_version: expected an integer, got a number"),
    "dataset-one-class": ("train", None, None, good_dataset(num_classes=1), None,
                          "error:data-format:", "num_classes must be >= 2, got 1"),
    "dataset-warnings-string": ("train", None, None, good_dataset(warnings="abc"), None,
                                "error:data-format:", "warnings: expected an array, got a string"),
    "dataset-warnings-number": ("train", None, None, good_dataset(warnings=["a", 1]), None,
                                "error:data-format:",
                                "warnings[1]: expected a string, got a number"),
    "dataset-id-number-and-null": ("train", None, None, NUMBER_AND_NULL_IDS, None,
                                   "error:data-format:",
                                   "bag id: expected a string, got a number"),
    "dataset-split-null": ("train", None, None,
                           dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0], split=None)]),
                           None, "error:data-format:",
                           "bag 'b0' split: expected a string, got null"),
    "dataset-provenance-array": ("train", None, None, good_dataset(provenance=[1, 2]), None,
                                 "error:data-format:",
                                 "provenance: expected an object, got an array"),
    "checkpoint-version-1": ("eval", None, None, GOOD_DATASET, OLD_CHECKPOINT,
                             "error:data-format:",
                             "unsupported checkpoint version 1; this release reads version 2"),
    "checkpoint-version-true": ("eval", None, None, GOOD_DATASET,
                                dict(FIXTURE_DOC, format_version=True), "error:data-format:",
                                "format_version: expected an integer, got a boolean"),
    "checkpoint-version-2.0": ("eval", None, None, GOOD_DATASET,
                               dict(FIXTURE_DOC, format_version=2.0), "error:data-format:",
                               "format_version: expected an integer, got a number"),
    "checkpoint-parameter-list": ("eval", None, None, GOOD_DATASET,
                                  checkpoint_with(embed_b=[0.5, 1.5, 2.5, 3.5]),
                                  "error:data-format:",
                                  "parameter embed_b: expected a packed string, got an array"),
    "dims-1e400": ("eval", None, None, GOOD_DATASET, with_raw(RAW_DIM, "1e400"),
                   "error:data-format:", "dims.feature_dim: expected an integer, got a number"),
    "gen-data-feature-dim-negative": ("gen-data", {"synthetic": {"feature_dim": -1}}, None, None,
                                      None, "error:config:", "synthetic.feature_dim must be >= 1"),
    "gen-data-feature-dim-zero": ("gen-data", {"synthetic": {"feature_dim": 0}}, None, None,
                                  None, "error:config:", "synthetic.feature_dim must be >= 1"),
    "grid-K-and-fraction": ("ablate", None, {"K": [5, 10], "fraction": [0.1]}, None, None,
                            "error:config:", "grid: axes K and fraction"),
    "ablate-embed-dim-zero": ("ablate", {"train": {"embed_dim": 0}}, {"M": [1]}, None, None,
                              "error:config:", "train.embed_dim must be >= 1"),
    "attn-dim-zero": ("train", {"train": {"attn_dim": 0}}, None, None, None,
                      "error:config:", "train.attn_dim must be >= 1"),
    "unknown-activation": ("train", {"train": {"activation": "tanh"}}, None, None, None,
                           "error:config:", "train.activation must be one of"),
    "eval-label-beyond-the-model": ("eval", None, None, FOUR_CLASS_MODEL_FIVE_CLASS_DATA,
                                    FIXTURE_DOC, "error:config:",
                                    "bag 'b0' has label 4, so at least 5 classes; the model "
                                    "has 4", "--split", "all"),
    "packed-non-alphabet": ("train", None, None, packed_dataset("AAAA*AAAAAA="), None,
                            "error:data-format:", "bag 'b0' instances: not packed float64"),
    "packed-bad-padding": ("train", None, None, packed_dataset(b64(0.5, 1.5)[:-1]), None,
                           "error:data-format:", "bag 'b0' instances: not packed float64"),
    "packed-excess-padding": ("train", None, None, packed_dataset(b64(*range(6)) + "="), None,
                              "error:data-format:", "bag 'b0' instances: not packed float64 "
                                                    "(65 characters for 48 bytes)"),
    "packed-12-bytes": ("train", None, None, packed_dataset("A" * 16), None,
                        "error:data-format:", "bag 'b0' instances: 12 packed bytes, "
                                              "not a multiple of 8"),
    "packed-3-values-2-features": ("train", None, None, packed_dataset(b64(0.5, 1.5, 2.5)),
                                   None, "error:data-format:", "bag 'b0' holds 3 packed values, "
                                                               "not rows of feature_dim=2"),
    "packed-nan": ("train", None, None, packed_dataset(b64(0.5, float("nan"))), None,
                   "error:data-format:", "bag 'b0': non-finite feature values"),
    "packed-parameter-non-alphabet": ("eval", None, None, GOOD_DATASET,
                                      checkpoint_with(embed_b="AAAA-AAAAAA="),
                                      "error:data-format:", "parameter embed_b: not packed"),
    "packed-parameter-inf": ("eval", None, None, GOOD_DATASET,
                             checkpoint_with(embed_b=b64(0.5, float("inf"), 0.5, 0.5)),
                             "error:data-format:", "parameter embed_b contains non-finite"),
    "packed-parameter-wrong-size": ("eval", None, None, GOOD_DATASET,
                                    checkpoint_with(embed_b=b64(0.5, 1.5, 2.5)),
                                    "error:data-format:",
                                    "parameter embed_b has shape (3,), want (4,)"),
    # 6.4e19 parameters: more bytes than an index reaches
    "attn-dim-1e17": ("train", {"train": {"attn_dim": 10**17}}, None, EIGHT_BAGS, None,
                      "error:config:", "parameters take more float64 bytes than an array"),
    # 5.1e18 bytes: more than a 57-bit address space maps, with or without overcommit
    "attn-dim-1e15": ("train", {"train": {"attn_dim": 10**15}}, None, EIGHT_BAGS, None,
                      "error:memory:", "Unable to allocate"),
    "grad-check-eps-zero": ("grad-check", None, None, None, None, "error:config:", "--eps",
                            "--eps", "0"),
    "grad-check-eps-negative": ("grad-check", None, None, None, None, "error:config:", "--eps",
                                "--eps", "-1"),
    "grad-check-eps-nan": ("grad-check", None, None, None, None, "error:config:", "--eps",
                           "--eps", "nan"),
    "grad-check-seeds-zero": ("grad-check", None, None, None, None, "error:config:", "--seeds",
                              "--seeds", "0"),
    "grad-check-seeds-negative": ("grad-check", None, None, None, None, "error:config:",
                                  "--seeds", "--seeds", "-3"),
    "grad-check-instances-zero": ("grad-check", None, None, None, None, "error:config:",
                                  "--instances", "--instances", "0"),
    "grad-check-mask-prob-two": ("grad-check", None, None, None, None, "error:config:",
                                 "--mask-prob", "--mask-prob", "2"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_is_one_error_line(case, tmp_path, capsys):
    command, config, grid, dataset, checkpoint, prefix, names, *extra = ERROR_CASES[case]
    if command == "grad-check":  # no files in or out
        argv = [command, *extra]
    else:
        argv = [command, "--out", str(tmp_path / "out"), *extra]
    if command not in ("gen-data", "grad-check") and dataset is not NO_FLAG:
        data = dataset if dataset is not None else GOOD_DATASET
        argv += ["--data", write_json(tmp_path / "data.json",
                                      data if isinstance(data, str) else dataset_text(data))]
    if config is not None:
        argv += ["--config", write_json(tmp_path / "config.json", config)]
    if command == "ablate":
        argv += ["--grid", write_json(tmp_path / "grid.json", grid)]
    if command == "eval":
        argv += ["--checkpoint", write_json(tmp_path / "ckpt.json", checkpoint)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(prefix)
    assert names in err
    assert prefix != "error:data-format:" or str(tmp_path) in err  # names the file
    assert not (tmp_path / "out").exists()


def run_module(cwd, *argv):
    """``python -m acmil`` in a fresh process, with this checkout's package on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(acmil.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "acmil", *argv], env=env, cwd=cwd,
                           capture_output=True, text=True, timeout=120)


def test_python_m_acmil_runs_the_cli(tmp_path):
    out = str(tmp_path / "out")
    for argv in (["train", "--data", "missing.json", "--out", out], ["train", "--out", out]):
        proc = run_module(tmp_path, *argv)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    proc = run_module(tmp_path, "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: acmil")


def test_non_utf8_config_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d.json")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error:data-format:") and str(config) in err


def test_ablate_on_a_missing_dataset_fails_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["ablate", "--data", str(tmp_path / "missing.json"),
            "--grid", write_json(tmp_path / "grid.json", {"M": [1], "n_seeds": 1}),
            "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:io:")
    assert not (out / "cells").exists()


def test_ablate_exits_1_when_every_run_fails(tiny_data, tmp_path, capsys):
    # lr0 = 1e300 overflows the first forward pass after the first Adam step
    cfg = write_json(tmp_path / "train.json", {"train": dict(TINY_TRAIN, epochs=1, lr0=1e300)})
    out = tmp_path / "sweep"
    argv = ["ablate", "--data", str(tiny_data), "--config", cfg, "--out", str(out),
            "--grid", write_json(tmp_path / "grid.json", {"M": [1], "n_seeds": 2})]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:run: all 2 runs failed; first: M1 seed0: NumericsError:")
    assert (out / "summary.csv").read_text().count("NumericsError") == 2


def test_a_diverging_run_prints_only_its_error_line(tiny_data, tmp_path):
    # numpy's overflow warnings would reach stderr ahead of the error line
    cfg = write_json(tmp_path / "train.json", {"train": dict(TINY_TRAIN, epochs=1, lr0=1e300)})
    grid = write_json(tmp_path / "grid.json", {"M": [1], "n_seeds": 2})
    runs = [("error:numerics:", "train"), ("error:run:", "ablate", "--grid", grid),
            ("error:run:", "ablate", "--grid", grid, "--jobs", "2")]
    for i, (prefix, *argv) in enumerate(runs):
        proc = run_module(tmp_path, *argv, "--data", str(tiny_data), "--config", cfg,
                          "--out", str(tmp_path / f"out{i}"))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(prefix), proc.stderr


# ------------------------------------------------------------ malformed files

# 4 values pack with padding, 6 without: an "=" after the last character of b1's
# string is excess padding
VALID_ROWS = {"b0": [[0.5, 1.5], [2.5, -1.0]], "b1": [[1.0, 2.0], [0.25, -3.0], [4.0, 0.5]]}
VALID_DATASET = {
    "format": "acmil-dataset", "format_version": 3, "feature_dim": 2, "num_classes": 2,
    "bags": [bag("b0", 0, "train", VALID_ROWS["b0"], instance_labels=[0, 1]),
             bag("b1", 1, "val", VALID_ROWS["b1"])],
}
TEXT = st.text(max_size=4).filter(lambda t: t != "@")
# a string of at most 4 characters is at most 3 bytes of base64, never a whole float64
NOT_PACKED = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), TEXT,
                       st.just({}), st.just([]), st.just([1.5]))
NOT_AN_INT = st.sampled_from(["1.5", "true", "1e400"])


@st.composite
def misspacked(draw, values) -> str:
    """``values`` packed with one fault: a character put in anywhere (outside the
    alphabet, or one too many; an ``=`` after the last character of a string without
    padding, which ``base64.b64decode`` ignores), the last character cut (bad padding),
    or bytes cut to a count that is not a multiple of 8."""
    text = jsonio.pack(values)
    how = draw(st.sampled_from(["insert", "padding", "bytes"]))
    if how == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(list("*-_ .A+/="))) + text[at:]
    if how == "padding":
        return text[:-1]
    raw = base64.b64decode(text)
    return base64.b64encode(raw[:-draw(st.integers(1, 7))]).decode()


def as_list(draw, values):
    """``values`` as a list of JSON numbers, one of them perhaps a boolean or a string,
    where a packed string belongs."""
    values = list(values)
    values[draw(st.integers(0, len(values) - 1))] = draw(
        st.sampled_from([0.5, 1, True, False, "1.5", None]))
    return values


@st.composite
def malformed_files(draw):
    """(command, dataset text, checkpoint text) with one fault in one of the files."""
    command = draw(st.sampled_from(["train", "eval", "ablate"]))
    dataset = json.loads(json.dumps(VALID_DATASET))
    checkpoint = FIXTURE.read_text()
    bag_index = draw(st.integers(0, 1))
    record = dataset["bags"][bag_index]
    rows = np.array(VALID_ROWS[record["id"]]).ravel()
    fault = draw(st.sampled_from(["rows", "packing", "list", "instances", "record", "integer",
                                  "cut",
                                  *(["checkpoint-integer", "checkpoint-list",
                                     "checkpoint-packing", "checkpoint-cut"]
                                    if command == "eval" else [])]))
    if fault == "rows":  # a row of the wrong length: a count feature_dim does not divide
        record["instances"] = jsonio.pack(np.append(rows, [0.5] * draw(st.sampled_from([1, 3]))))
    elif fault == "packing":
        record["instances"] = draw(misspacked(rows))
    elif fault == "list":
        record["instances"] = draw(st.sampled_from([
            rows.tolist(), np.reshape(rows, (-1, 2)).tolist(), as_list(draw, rows)]))
    elif fault == "instances":
        record["instances"] = draw(NOT_PACKED)
    elif fault == "record":
        dataset["bags"][bag_index] = draw(NOT_PACKED.filter(lambda v: not isinstance(v, dict)))
    elif fault == "integer":
        field = draw(st.sampled_from(["format_version", "feature_dim", "num_classes", "label",
                                      "instance_labels"]))
        owner = dataset["bags"][0] if field in ("label", "instance_labels") else dataset
        if field == "instance_labels":
            owner[field][draw(st.integers(0, 1))] = "@"
        else:
            owner[field] = "@"
    elif fault == "checkpoint-integer":
        doc = json.loads(checkpoint)
        field = draw(st.sampled_from(["format_version", "seed", "dims"]))
        if field == "dims":
            doc["dims"][draw(st.sampled_from(sorted(doc["dims"])))] = "@"
        else:
            doc[field] = "@"
        checkpoint = with_raw(doc, draw(NOT_AN_INT))
    elif fault in ("checkpoint-list", "checkpoint-packing"):
        doc = json.loads(checkpoint)
        name = draw(st.sampled_from(sorted(doc["params"])))
        values = jsonio.float_array(doc["params"][name], name)
        if fault == "checkpoint-list":
            doc["params"][name] = as_list(draw, values)
        elif draw(st.booleans()):  # a parameter of the wrong size
            size = values.size + draw(st.sampled_from([-1, 1]))
            doc["params"][name] = jsonio.pack(np.resize(values, size))
        else:
            doc["params"][name] = draw(misspacked(values))
        checkpoint = json.dumps(doc)
    text = dataset_text(dataset, draw(NOT_AN_INT))
    if fault == "cut":
        text = text[:draw(st.integers(0, text.rindex("}")))]
    elif fault == "checkpoint-cut":
        checkpoint = checkpoint[:draw(st.integers(0, checkpoint.rindex("}")))]
    return command, text, checkpoint, fault.startswith("checkpoint")


@settings(deadline=None, max_examples=200)
@given(case=malformed_files())
def test_a_malformed_file_is_one_data_format_line(case):
    command, dataset, checkpoint, checkpoint_at_fault = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = write_json(tmp / "data.json", dataset)
        argv = [command, "--data", data, "--out", str(tmp / "out")]
        if command == "eval":
            argv += ["--checkpoint", write_json(tmp / "ckpt.json", checkpoint)]
        if command == "ablate":
            argv += ["--grid", write_json(tmp / "grid.json", {"M": [1], "n_seeds": 1})]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 1
        err = err.getvalue()
        assert len(err.splitlines()) == 1 and err.startswith("error:data-format:")
        assert str(tmp / ("ckpt.json" if checkpoint_at_fault else "data.json")) in err
        assert not (tmp / "out").exists()
