import json
from pathlib import Path

import pytest

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
    path.write_text(json.dumps(doc))
    return str(path)


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
