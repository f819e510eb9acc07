import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmil
from acmil import jsonio
from acmil.cli import main
from acmil.data import load_dataset


FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_v1.json"

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
    "format": "acmil-dataset", "format_version": 1, "feature_dim": 2, "num_classes": 2,
    "bags": [{"id": "b0", "label": 0, "split": "train", "instances": [[0.5, 1.5]]}],
}
NO_FEATURE_DIM = {k: v for k, v in GOOD_DATASET.items() if k != "feature_dim"}
BAD_LABEL = dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0], label="x")])
FIXTURE_DOC = jsonio.load(FIXTURE)
NO_DIMS = {k: v for k, v in FIXTURE_DOC.items() if k != "dims"}
TOPK_ZERO = dict(FIXTURE_DOC, config=dict(FIXTURE_DOC["config"], topk_list=[0]))
STRING_PROB = dict(FIXTURE_DOC, config=dict(FIXTURE_DOC["config"],
                                            stkim={"count": 10, "prob": "x"}))
RAW_LABEL = dict(GOOD_DATASET, bags=[dict(GOOD_DATASET["bags"][0], label="@")])
RAW_DIM = dict(FIXTURE_DOC, dims=dict(FIXTURE_DOC["dims"], feature_dim="@"))

# (command, config, grid, dataset, checkpoint, error prefix, text the line names,
#  *extra flags); a dataset of NO_FLAG leaves out the --data flag
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
    "label-1e400": ("train", None, None, with_raw(RAW_LABEL, "1e400"), None,
                    "error:data-format:", "bag 'b0' label: expected an integer, got a number"),
    "label-1.5": ("train", None, None, with_raw(RAW_LABEL, "1.5"), None,
                  "error:data-format:", "bag 'b0' label: expected an integer, got a number"),
    "dims-1e400": ("eval", None, None, GOOD_DATASET, with_raw(RAW_DIM, "1e400"),
                   "error:data-format:", "dims.feature_dim: expected an integer, got a number"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_is_one_error_line(case, tmp_path, capsys):
    command, config, grid, dataset, checkpoint, prefix, names, *extra = ERROR_CASES[case]
    argv = [command, "--out", str(tmp_path / "out"), *extra]
    if command != "gen-data" and dataset is not NO_FLAG:
        data = dataset if dataset is not None else GOOD_DATASET
        argv += ["--data", write_json(tmp_path / "data.json", data)]
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
    assert not (tmp_path / "out").exists()


def test_python_m_acmil_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(acmil.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "acmil", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    out = str(tmp_path / "out")
    for argv in (["train", "--data", "missing.json", "--out", out], ["train", "--out", out]):
        proc = run(*argv)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    proc = run("--help")
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


# ------------------------------------------------------------ malformed files

VALID_DATASET = {
    "format": "acmil-dataset", "format_version": 1, "feature_dim": 2, "num_classes": 2,
    "bags": [
        {"id": "b0", "label": 0, "split": "train", "instance_labels": [0, 1],
         "instances": [[0.5, 1.5], [2.5, -1.0]]},
        {"id": "b1", "label": 1, "split": "val", "instances": [[1.0, 2.0]]},
    ],
}
TEXT = st.text(max_size=4).filter(lambda t: t != "@")
NOT_A_NUMBER = st.one_of(TEXT, st.none(), st.just([1.5]), st.just([]))
NOT_A_LIST = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), TEXT,
                       st.just({}), st.just([]))
NOT_AN_INT = st.sampled_from(["1.5", "true", "1e400"])


@st.composite
def malformed_files(draw):
    """(command, dataset text, checkpoint text) with one fault in one of the files."""
    command = draw(st.sampled_from(["train", "eval", "ablate"]))
    dataset = json.loads(json.dumps(VALID_DATASET))
    checkpoint = FIXTURE.read_text()
    bag = dataset["bags"][draw(st.integers(0, 1))]
    fault = draw(st.sampled_from(["ragged", "feature", "instances", "record", "integer",
                                  "cut", *(["checkpoint-integer", "checkpoint-cut"]
                                           if command == "eval" else [])]))
    if fault == "ragged":
        bag["instances"].append([0.5] * draw(st.sampled_from([0, 1, 3])))
    elif fault == "feature":
        bag["instances"][-1][draw(st.integers(0, 1))] = draw(NOT_A_NUMBER)
    elif fault == "instances":
        bag["instances"] = draw(NOT_A_LIST)
    elif fault == "record":
        dataset["bags"][draw(st.integers(0, 1))] = draw(NOT_A_LIST.filter(
            lambda v: not isinstance(v, dict)))
    elif fault == "integer":
        field = draw(st.sampled_from(["feature_dim", "num_classes", "label", "instance_labels"]))
        owner = dataset if field in ("feature_dim", "num_classes") else dataset["bags"][0]
        if field == "instance_labels":
            owner[field][draw(st.integers(0, 1))] = "@"
        else:
            owner[field] = "@"
    elif fault == "checkpoint-integer":
        doc = json.loads(checkpoint)
        if draw(st.booleans()):
            doc["seed"] = "@"
        else:
            doc["dims"][draw(st.sampled_from(sorted(doc["dims"])))] = "@"
        checkpoint = with_raw(doc, draw(NOT_AN_INT))
    text = with_raw(dataset, draw(NOT_AN_INT))
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
