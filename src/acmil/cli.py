"""Command-line surface: gen-data, train, eval, ablate, grad-check.

All commands are driven by JSON config files; flags override file values.
Every run writes its fully resolved configuration into the output location
so it can be replayed exactly.  Errors exit nonzero after printing one
machine-parsable line of the form ``error:<kind>: <message>`` to stderr.

Output directory layout for a training run:

    config.json      resolved effective configuration
    checkpoint.json  model at the best-validation epoch
    history.csv      one row per epoch (column order in TrainHistory)
    report.json      test-split metrics report
    report_row.csv   flat one-row summary of the report
    attention.json   per-bag attention export (optional)
    embeddings.json  per-bag embedding export (optional)

An ablation sweep nests one such directory per (cell, seed) under
``cells/`` and aggregates means and standard deviations into summary.csv.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import jsonio
from .config import check_keys, decode
from .data import (SPLIT_NAMES, Dataset, SyntheticConfig, generate_synthetic, load_dataset,
                   save_dataset, split_dataset)
from .errors import AcmilError, ConfigError, RunError
from .gradcheck import ERROR_BOUND, TINY_DIMS, TINY_INSTANCES, max_suite_error, run_suite
from .mil import StkimConfig
from .model import ModelDims, load_checkpoint, save_checkpoint
from .optim import TrainConfig, check_topk_list, evaluate, train

DEFAULT_SPLIT_RATIOS = (0.6, 0.2, 0.2)

GEN_DATA_KEYS = ("synthetic", "split")
SPLIT_KEYS = ("ratios", "seed")
# command, data and variant are records that train writes into its
# config.json; they are ignored, so that file replays as a --config
TRAIN_KEYS = ("train", "export_attention", "export_embeddings", "command", "data", "variant")
GRID_KEYS = ("M", "K", "fraction", "p", "disable_L_d", "presets", "n_seeds")

# named masking strategies for the sweep command
MASK_PRESETS = {
    "stkim": {"count": 10, "fraction": None, "prob": 0.6},
    "weno": {"count": 95, "fraction": None, "prob": 1.0},
    "mhim": {"count": None, "fraction": 0.01, "prob": 0.5},
}


def _load_config(path, allowed, section: str = "") -> dict:
    return {} if path is None else check_keys(jsonio.load(path), allowed, section)


def _variant_label(cfg: TrainConfig) -> str:
    if cfg.branches == 1 and cfg.stkim.prob == 0.0:
        return "abmil"
    return "acmil"


def cmd_gen_data(args) -> int:
    doc = _load_config(args.config, GEN_DATA_KEYS)
    synth = SyntheticConfig.from_dict(doc.get("synthetic", {}), "synthetic")
    split_doc = check_keys(doc.get("split", {}), SPLIT_KEYS, "split")
    ratios = decode(split_doc.get("ratios", DEFAULT_SPLIT_RATIOS), tuple[float, ...],
                    "split.ratios")
    split_seed = decode(split_doc.get("seed", synth.seed), int, "split.seed")
    ds = generate_synthetic(synth)
    ds = split_dataset(ds, ratios, split_seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {len(ds.bags)} bags to {out}")
    return 0


def _train_config_from(doc: dict, seed_flag: int | None) -> TrainConfig:
    cfg = TrainConfig.from_dict(doc.get("train", {}), "train")
    if seed_flag is not None:
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "seed": seed_flag}, "train")
    return cfg


def _require_split(ds, name: str):
    bags = ds.bags_in(name)
    if not bags:
        raise ConfigError(f"dataset has no bags in the {name!r} split")
    return bags


def _write_run_outputs(out_dir: Path, cfg: TrainConfig, model, history, report, exports,
                       data_path: str, export_attention: bool, export_embeddings: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {
        "command": "train",
        "data": str(data_path),
        "variant": _variant_label(cfg),
        "train": cfg.to_dict(),
        "export_attention": export_attention,
        "export_embeddings": export_embeddings,
    }
    jsonio.dump(resolved, out_dir / "config.json")
    save_checkpoint(model, out_dir / "checkpoint.json", config=cfg.to_dict())
    history.save_csv(out_dir / "history.csv")
    report_doc = {
        "variant": _variant_label(cfg),
        "selected_epoch": history.selected_epoch,
        "metrics": report.to_dict(),
    }
    jsonio.dump(report_doc, out_dir / "report.json")
    jsonio.write_text(out_dir / "report_row.csv",
                      jsonio.csv_text([report.summary_header(), report.summary_row()]))
    if export_attention:
        jsonio.dump(exports["attention"], out_dir / "attention.json")
    if export_embeddings:
        jsonio.dump(exports["embeddings"], out_dir / "embeddings.json")


def _run_training(ds: Dataset, data_path: str, cfg: TrainConfig, out_dir: Path,
                  export_attention: bool, export_embeddings: bool) -> dict:
    """Train on ``ds`` and write the run directory; ``data_path`` is recorded."""
    _require_split(ds, "train")
    _require_split(ds, "val")
    test_bags = _require_split(ds, "test")
    model, history = train(ds, cfg)
    report, exports = evaluate(model, test_bags, stkim=cfg.stkim, topk_list=cfg.topk_list)
    _write_run_outputs(out_dir, cfg, model, history, report, exports,
                       data_path, export_attention, export_embeddings)
    return report.to_dict()


def cmd_train(args) -> int:
    doc = _load_config(args.config, TRAIN_KEYS)
    cfg = _train_config_from(doc, args.seed)
    export_attention = decode(doc.get("export_attention", True), bool, "export_attention")
    export_embeddings = decode(doc.get("export_embeddings", True), bool, "export_embeddings")
    report = _run_training(load_dataset(args.data), args.data, cfg, Path(args.out),
                           export_attention, export_embeddings)
    auc = report["macro_auc"]
    print(f"trained {_variant_label(cfg)}; test macro_auc="
          f"{'n/a' if auc is None else format(auc, '.4f')}")
    return 0


def cmd_eval(args) -> int:
    model, ckpt_cfg = load_checkpoint(args.checkpoint)
    stkim = (StkimConfig.from_dict(ckpt_cfg["stkim"], "checkpoint config.stkim")
             if "stkim" in ckpt_cfg else None)
    path = "checkpoint config.topk_list"
    topk = check_topk_list(decode(ckpt_cfg.get("topk_list", [10]), tuple[int, ...], path), path)
    ds = load_dataset(args.data)
    bags = _require_split(ds, args.split) if args.split != "all" else ds.bags
    if not bags:
        raise ConfigError("no bags to evaluate")
    report, exports = evaluate(
        model,
        bags,
        stkim=stkim,
        stkim_at_eval=args.stkim_at_eval,
        eval_seed=args.seed if args.seed is not None else 0,
        topk_list=topk,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonio.dump(
        {
            "command": "eval",
            "checkpoint": str(args.checkpoint),
            "data": str(args.data),
            "split": args.split,
            "stkim_at_eval": bool(args.stkim_at_eval),
            "seed": args.seed if args.seed is not None else 0,
        },
        out_dir / "config.json",
    )
    jsonio.dump({"metrics": report.to_dict()}, out_dir / "report.json")
    jsonio.dump(exports["attention"], out_dir / "attention.json")
    auc = report.macro_auc
    print(f"evaluated {len(bags)} bags; macro_auc="
          f"{'n/a' if auc is None else format(auc, '.4f')}")
    return 0


def _expand_grid(base: TrainConfig, grid: dict) -> list[tuple[str, TrainConfig]]:
    """Cells from a grid spec over branches / masking / diversity settings.

    Grid values pass through TrainConfig.from_dict uncast, so they get its
    type checks; an error names the cell, e.g. ``grid[M2].branches``.
    """

    def cell(name: str, train: dict, stkim: dict) -> tuple[str, TrainConfig]:
        d = base.to_dict()
        d = {**d, **train, "stkim": {**d["stkim"], **stkim}}
        return name, TrainConfig.from_dict(d, f"grid[{name}]")

    cells: list[tuple[str, TrainConfig]] = []
    for preset in decode(grid.get("presets", []), tuple[str, ...], "grid.presets"):
        if preset not in MASK_PRESETS:
            raise ConfigError(f"grid: unknown preset {preset!r}")
        cells.append(cell(f"preset-{preset}", {}, MASK_PRESETS[preset]))

    axes: list[tuple[str, list]] = []
    for key in ("M", "K", "fraction", "p", "disable_L_d"):
        if key in grid:
            vals = grid[key]
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"grid: axis {key} must be a non-empty list")
            axes.append((key, vals))
    if axes:
        combos: list[dict] = [{}]
        for key, vals in axes:
            combos = [dict(c, **{key: v}) for c in combos for v in vals]
        for combo in combos:
            train: dict = {}
            stkim: dict = {}
            parts = []
            if "M" in combo:
                train["branches"] = combo["M"]
                parts.append(f"M{combo['M']}")
            if "K" in combo:
                stkim.update(count=combo["K"], fraction=None)
                parts.append(f"K{combo['K']}")
            if "fraction" in combo:
                stkim.update(fraction=combo["fraction"], count=None)
                parts.append(f"f{combo['fraction']}")
            if "p" in combo:
                stkim["prob"] = combo["p"]
                parts.append(f"p{combo['p']}")
            if "disable_L_d" in combo:
                train["disable_diversity_loss"] = combo["disable_L_d"]
                parts.append(f"nold{int(bool(combo['disable_L_d']))}")
            cells.append(cell("-".join(parts), train, stkim))
    if not cells:
        raise ConfigError("grid produced no cells")
    return cells


def _ablate_run(task: tuple, ds: Dataset) -> tuple[int, int, dict | None, str | None]:
    """One (cell, seed) training; returns metrics or the failure message."""
    cell_index, seed_index, data_path, cfg_dict, run_dir = task
    try:
        cfg = TrainConfig.from_dict(cfg_dict)
        report = _run_training(ds, data_path, cfg, Path(run_dir), False, False)
        return cell_index, seed_index, report, None
    except Exception as exc:  # recorded per cell; the sweep continues
        return cell_index, seed_index, None, f"{type(exc).__name__}: {exc}"


# the dataset of an `ablate --jobs N` worker process, set once by _init_worker
_worker_dataset: Dataset | None = None


def _init_worker(ds: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = ds


def _worker_run(task: tuple) -> tuple[int, int, dict | None, str | None]:
    return _ablate_run(task, _worker_dataset)


def cmd_ablate(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    doc = _load_config(args.config, TRAIN_KEYS)
    base = _train_config_from(doc, args.seed)
    grid = _load_config(args.grid, GRID_KEYS, "grid")
    n_seeds = decode(grid.get("n_seeds", 5), int, "grid.n_seeds")
    if n_seeds < 1:
        raise ConfigError("grid: n_seeds must be >= 1")
    cells = _expand_grid(base, grid)
    ds = load_dataset(args.data)
    for split in SPLIT_NAMES:
        _require_split(ds, split)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonio.dump(
        {
            "command": "ablate",
            "data": str(args.data),
            "base": base.to_dict(),
            "grid": grid,
            "cells": [name for name, _ in cells],
            "jobs": args.jobs,
        },
        out_dir / "config.json",
    )

    tasks = []
    for ci, (name, cfg) in enumerate(cells):
        for si in range(n_seeds):
            d = cfg.to_dict()
            d["seed"] = (cfg.seed + ci * 10_000 + si + 1) & ((1 << 64) - 1)
            run_dir = out_dir / "cells" / f"{ci:03d}-{name}" / f"seed{si}"
            tasks.append((ci, si, str(args.data), d, str(run_dir)))

    results: dict[tuple[int, int], tuple[dict | None, str | None]] = {}
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            for ci, si, rep, err in pool.map(_worker_run, tasks):
                results[(ci, si)] = (rep, err)
    else:
        for task in tasks:
            ci, si, rep, err = _ablate_run(task, ds)
            results[(ci, si)] = (rep, err)

    # one top-k mass per K of the base config, in report_row.csv's order
    metrics = ["macro_auc", "macro_f1", "mean_attention_entropy",
               *(f"top{k}_mass" for k in sorted(set(base.topk_list))),
               "instance_localization_auc"]
    header = ["cell", "branches", "k_count", "k_fraction", "prob", "disable_L_d",
              "n_seeds", "n_ok"]
    for m in metrics:
        header += [f"{m}_mean", f"{m}_std"]
    header.append("errors")
    rows = [header]
    for ci, (name, cfg) in enumerate(cells):
        reports = []
        errors = []
        for si in range(n_seeds):
            rep, err = results[(ci, si)]
            if rep is not None:
                topk = rep["mean_topk_cumulative"]
                reports.append({**rep, **{f"top{k}_mass": v for k, v in topk.items()}})
            if err is not None:
                errors.append(f"seed{si}: {err}")
        row = [
            name,
            cfg.branches,
            "" if cfg.stkim.count is None else cfg.stkim.count,
            "" if cfg.stkim.fraction is None else cfg.stkim.fraction,
            cfg.stkim.prob,
            int(cfg.disable_diversity_loss),
            n_seeds,
            len(reports),
        ]
        for m in metrics:
            vals = [r[m] for r in reports if r[m] is not None]
            if vals:
                row += [format(float(np.mean(vals)), ".6g"),
                        format(float(np.std(vals)), ".6g")]
            else:
                row += ["", ""]
        row.append("; ".join(errors))
        rows.append(row)
    jsonio.write_text(out_dir / "summary.csv", jsonio.csv_text(rows))
    n_failed = sum(1 for rep, _ in results.values() if rep is None)
    print(f"ablation complete: {len(cells)} cells x {n_seeds} seeds, "
          f"{n_failed} failed runs; summary at {out_dir / 'summary.csv'}")
    if n_failed == len(results):
        (ci, si), (_, err) = next(iter(results.items()))
        raise RunError(f"all {n_failed} runs failed; first: {cells[ci][0]} seed{si}: {err}")
    return 0


def cmd_grad_check(args) -> int:
    dims = ModelDims(
        feature_dim=args.feature_dim,
        embed_dim=args.embed_dim,
        attn_dim=args.attn_dim,
        branches=args.branches,
        classes=args.classes,
    )
    base = args.seed if args.seed is not None else 0
    seeds = [base + i for i in range(args.seeds)]
    results = run_suite(seeds, dims=dims, n_instances=args.instances,
                        probs=(0.0, args.mask_prob), eps=args.eps)
    worst = max_suite_error(results)
    for r in results:
        print(f"seed={r.seed} p={r.mask_prob} max_rel_error={r.max_error:.3e}")
    status = "PASS" if worst < ERROR_BOUND else "FAIL"
    print(f"{status}: max relative error {worst:.3e} over {len(results)} checks "
          f"(bound {ERROR_BOUND:g})")
    return 0 if worst < ERROR_BOUND else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, so it prints as one line like any other."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="acmil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic bag dataset")
    p.add_argument("--config", default=None, help="JSON config with synthetic/split sections")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and report test metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    p.add_argument("--stkim-at-eval", action="store_true",
                   help="keep stochastic masking active at evaluation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep a config grid, aggregating metrics per cell")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="base train config")
    p.add_argument("--grid", required=True, help="JSON grid spec")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check", help="verify analytic gradients by central differences")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", type=int, default=20, help="number of random problems")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--mask-prob", type=float, default=0.6)
    p.add_argument("--feature-dim", type=int, default=TINY_DIMS.feature_dim)
    p.add_argument("--embed-dim", type=int, default=TINY_DIMS.embed_dim)
    p.add_argument("--attn-dim", type=int, default=TINY_DIMS.attn_dim)
    p.add_argument("--branches", type=int, default=TINY_DIMS.branches)
    p.add_argument("--classes", type=int, default=TINY_DIMS.classes)
    p.add_argument("--instances", type=int, default=TINY_INSTANCES)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AcmilError as exc:
        print(f"error:{exc.kind}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
