"""The four benchmark workloads and their correctness checks.

Each workload makes its inputs from the seed in ``prepare`` (never timed),
loads them in ``setup``, makes the cold first call in ``warmup`` and then
repeats ``op``, one call at a time (a closed loop with one client).  The
program is reached only through the public ``acmil`` modules, looked up at
call time so that the tracer's wrappers see every call.

Why these workloads: see README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

SPLIT_RATIOS = (0.6, 0.2, 0.2)
TRAIN_EPOCHS = {"full": 2, "tiny": 1}
SWEEP_EPOCHS = 1
SWEEP_GRID = {"M": [1, 5], "n_seeds": 2}
# `--jobs nproc` with OpenBLAS's default threads oversubscribes the cores:
# the same sweep took 0.7 to 18 s per run, too unsteady to gate on (see
# README.md).  One job keeps the per-run fixed costs and is steady enough.
SWEEP_JOBS = 1
# eval-bigbag: (bags per evaluate call, smallest N, largest N)
BIGBAG = {"full": (16, 1000, 2000), "tiny": (4, 20, 40)}
# heatmaps are softmax outputs averaged over branches; they sum to 1 up to
# float64 rounding over N <= 2000 terms
HEATMAP_TOL = 1e-9
# a later float-order change may move the loss in the last bits, never more
LOSS_RTOL = 1e-9


def synthetic_config(ac, seed: int, tiny: bool, **override):
    """The paper-default dataset config, or its toy-size version."""
    kw = {"seed": seed}
    if tiny:
        kw.update(bags_per_class=6, instances_min=10, instances_max=20)
    kw.update(override)
    return ac.data.SyntheticConfig(**kw)


def make_dataset(ac, seed: int, tiny: bool):
    """The seeded default dataset, split 60/20/20 by the same seed."""
    ds = ac.data.generate_synthetic(synthetic_config(ac, seed, tiny))
    return ac.data.split_dataset(ds, SPLIT_RATIOS, seed)


def dataset_digest(ds) -> str:
    """sha256 over every bag's id, label, split, instance labels and bits."""
    h = hashlib.sha256()
    h.update(f"{ds.feature_dim}/{ds.num_classes}/{len(ds.bags)}".encode())
    for b in ds.bags:
        h.update(f"|{b.id}|{b.label}|{ds.split_of.get(b.id, '')}|".encode())
        h.update(np.ascontiguousarray(b.instances, dtype="<f8").tobytes())
        if b.instance_labels is not None:
            h.update(np.ascontiguousarray(b.instance_labels, dtype="<i8").tobytes())
    return h.hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    name = ""
    throughput = ""  # the name items_per_s goes by on this workload
    uses_model = True

    def __init__(self, ac, seed: int, tiny: bool, workdir: Path, reference: dict):
        self.ac = ac
        self.seed = seed
        self.tiny = tiny
        self.size = "tiny" if tiny else "full"
        self.workdir = Path(workdir)
        self.reference = reference.get(self.name, {}).get(self.size)
        self.configure()

    def configure(self) -> None:
        """Input paths and configs, the same in the prepare step, the set-up
        probes and the main process, which share one work directory."""

    def prepare(self) -> None:
        """Write the seeded inputs to the work directory."""

    def setup(self) -> None:
        """Read the inputs and build what every operation needs."""

    def warmup(self) -> None:
        """The cold first call a fresh process pays."""
        self.op(0)

    def op(self, index: int) -> dict:
        raise NotImplementedError

    def check_op(self, rec: dict) -> list[tuple[str, bool, str]]:
        return []

    def final_checks(self) -> list[tuple[str, bool, str]]:
        return []

    def extra_metrics(self, recs: list[dict]) -> dict[str, tuple[float, str]]:
        """Metrics printed by name besides the end-to-end ones."""
        return {}


def cold_train_step(ac, ds, cfg) -> None:
    """Model init plus one training step: what a fresh `acmil train` pays
    before its first bag is done."""
    bag = ds.bags_in("train")[0]
    dims = ac.model.ModelDims(ds.feature_dim, cfg.embed_dim, cfg.attn_dim, cfg.branches,
                              ds.num_classes)
    model = ac.optim.init_model(dims, ac.rng.Rng.stream(cfg.seed, 0), cfg.activation)
    trace = ac.optim.mba_forward(bag, model, cfg.stkim, ac.rng.Rng.stream(cfg.seed, 2),
                                 training=True)
    ac.optim.total_loss(trace, bag.label)
    grads = ac.optim.backward(trace, bag, model)
    ac.optim.adam_step(model, grads, ac.optim.AdamState(model), 1, cfg.lr0, cfg)


class TrainDefault(Workload):
    """``train()`` at paper defaults on the default synthetic dataset."""

    name = "train-default"
    throughput = "train_bags_per_s"

    def _config(self, seed):
        return self.ac.optim.TrainConfig(epochs=TRAIN_EPOCHS[self.size], seed=seed)

    def configure(self):
        self.data_path = self.workdir / "data.json"
        self.cfg = self._config(self.seed)
        self.checkpoints: list[str] = []

    def prepare(self):
        self.ac.data.save_dataset(make_dataset(self.ac, self.seed, self.tiny), self.data_path)

    def setup(self):
        self.ds = self.ac.data.load_dataset(self.data_path)
        self.n_train = len(self.ds.bags_in("train"))

    def warmup(self):
        cold_train_step(self.ac, self.ds, self.cfg)

    def op(self, index):
        t0 = time.perf_counter()
        model, history = self.ac.optim.train(self.ds, self.cfg)
        dt = time.perf_counter() - t0
        return {"op_s": dt, "items": self.cfg.epochs * self.n_train,
                "model": model, "history": history}

    def check_op(self, rec):
        path = self.workdir / "checkpoint.json"
        self.ac.model.save_checkpoint(rec.pop("model"), path, config=self.cfg.to_dict())
        digest = sha256_file(path)
        self.checkpoints.append(digest)
        rec.pop("history")
        return [("train-default: checkpoint byte-identical to the first run",
                 digest == self.checkpoints[0], digest[:16])]

    def final_checks(self):
        ref = self.reference
        ds = self.ds if self.seed == ref["seed"] else make_dataset(self.ac, ref["seed"], self.tiny)
        _, history = self.ac.optim.train(ds, self._config(ref["seed"]))
        loss = history.records[-1].train_loss.total
        want = ref["final_train_loss"]
        return [
            ("train-default: reference final train loss",
             abs(loss - want) <= LOSS_RTOL * abs(want), f"{loss!r} vs {want!r}"),
            ("train-default: reference selected epoch",
             history.selected_epoch == ref["selected_epoch"],
             f"{history.selected_epoch} vs {ref['selected_epoch']}"),
        ]


def make_bigbags(seed: int, n_bags: int, n_min: int, n_max: int, dim: int = 32):
    """Pattern clusters plus background, like the synthetic generator, in numpy.

    Returns (instances, instance_labels, label) per bag.  Positive bags put
    10-40% of their instances on 1-4 of four pattern clusters; the rest, and
    every negative bag, come from three background clusters.  Bag sizes are
    spread evenly over [n_min, n_max] and shuffled by the seed, so every seed
    asks for the same total work.
    """
    rng = np.random.default_rng([seed, 0xB16BA6])
    means = rng.normal(size=(7, dim)) * 8.0
    patterns, background = means[:4], means[4:]
    sizes = rng.permutation(np.linspace(n_min, n_max, n_bags).round().astype(int))
    out = []
    for i, n in enumerate(sizes.tolist()):
        label = i % 2
        inst_labels = np.zeros(n, dtype=np.int64)
        n_pos = 0
        if label:
            n_pos = max(1, int(rng.uniform(0.1, 0.4) * n + 0.5))
            chosen = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            inst_labels[:n_pos] = 1 + chosen[rng.integers(0, len(chosen), size=n_pos)]
        centers = np.concatenate([patterns[inst_labels[:n_pos] - 1],
                                  background[rng.integers(0, 3, size=n - n_pos)]])
        x = centers + rng.normal(size=(n, dim))
        perm = rng.permutation(n)
        out.append((x[perm], inst_labels[perm], label))
    return out


class EvalBigBag(Workload):
    """What ``acmil eval`` does, through the library, on bags of N in [1000, 2000]."""

    name = "eval-bigbag"
    throughput = "eval_bags_per_s"

    def configure(self):
        self.bags_path = self.workdir / "bigbags.npz"
        self.ckpt_path = self.workdir / "checkpoint.json"
        self.out = self.workdir / "eval"
        self.digests: list[tuple[str, str]] = []

    def prepare(self):
        ac = self.ac
        n_bags, n_min, n_max = BIGBAG[self.size]
        arrays = {}
        for i, (x, inst, label) in enumerate(make_bigbags(self.seed, n_bags, n_min, n_max)):
            arrays[f"x{i}"], arrays[f"y{i}"], arrays[f"label{i}"] = x, inst, np.int64(label)
        np.savez(self.bags_path, **arrays)
        dims = ac.model.ModelDims(32, 64, 128, 5, 2)
        model = ac.model.init_model(dims, ac.rng.Rng.stream(self.seed, 0), "relu", seed=self.seed)
        ac.model.save_checkpoint(model, self.ckpt_path,
                                 config=ac.optim.TrainConfig(seed=self.seed).to_dict())
        self.out.mkdir()

    def setup(self):
        ac = self.ac
        self.model, ckpt_cfg = ac.model.load_checkpoint(self.ckpt_path)
        self.stkim = ac.mil.StkimConfig.from_dict(ckpt_cfg["stkim"])
        self.topk = tuple(int(k) for k in ckpt_cfg.get("topk_list", [10]))
        with np.load(self.bags_path) as z:
            n = sum(1 for k in z.files if k.startswith("label"))
            self.bags = [ac.bags.Bag(id=f"big{i:03d}", instances=z[f"x{i}"],
                                     label=int(z[f"label{i}"]), instance_labels=z[f"y{i}"])
                         for i in range(n)]

    def op(self, index):
        ac = self.ac
        t0 = time.perf_counter()
        report, exports = ac.optim.evaluate(self.model, self.bags, stkim=self.stkim,
                                            topk_list=self.topk)
        ac.jsonio.dump({"command": "eval", "checkpoint": str(self.ckpt_path),
                        "data": str(self.bags_path), "split": "all",
                        "stkim_at_eval": False, "seed": 0}, self.out / "config.json")
        ac.jsonio.dump({"metrics": report.to_dict()}, self.out / "report.json")
        ac.jsonio.dump(exports["attention"], self.out / "attention.json")
        dt = time.perf_counter() - t0
        return {"op_s": dt, "items": len(self.bags), "exports": exports}

    def check_op(self, rec):
        attention = rec.pop("exports")["attention"]
        bad = [bag.id for bag in self.bags
               if len(attention[bag.id]) != bag.n_instances
               or abs(sum(attention[bag.id]) - 1.0) > HEATMAP_TOL]
        digests = (sha256_file(self.out / "report.json"), sha256_file(self.out / "attention.json"))
        self.digests.append(digests)
        return [("eval-bigbag: every heatmap sums to 1", not bad, ",".join(bad[:3])),
                ("eval-bigbag: report and export identical to the first call",
                 digests == self.digests[0], digests[0][:16])]


class GenData(Workload):
    """generate_synthetic + split_dataset + save_dataset + load_dataset, default config."""

    name = "gen-data"
    throughput = "cycle_bags_per_s"
    uses_model = False

    def configure(self):
        self.path = self.workdir / "data.json"
        self.cfg = synthetic_config(self.ac, self.seed, self.tiny)
        self.digests: list[str] = []

    def _cycle(self, cfg, path):
        ac = self.ac
        t0 = time.perf_counter()
        ds = ac.data.split_dataset(ac.data.generate_synthetic(cfg), SPLIT_RATIOS, cfg.seed)
        t1 = time.perf_counter()
        ac.data.save_dataset(ds, path)
        t2 = time.perf_counter()
        loaded = ac.data.load_dataset(path)
        t3 = time.perf_counter()
        return {"op_s": t3 - t0, "items": len(ds.bags), "gen_s": t1 - t0,
                "write_s": t2 - t1, "read_s": t3 - t2, "ds": ds, "loaded": loaded}

    def warmup(self):
        # every function of the cycle once, on one bag per class
        tiny = synthetic_config(self.ac, self.seed, True, bags_per_class=1)
        self._cycle(tiny, self.workdir / "warmup.json")

    def op(self, index):
        return self._cycle(self.cfg, self.path)

    def check_op(self, rec):
        ds, loaded = rec.pop("ds"), rec.pop("loaded")
        digest = dataset_digest(ds)
        self.digests.append(digest)
        same = digest == dataset_digest(loaded) and ds.provenance == loaded.provenance
        return [("gen-data: save/load round trip is bit-exact", same, digest[:16]),
                ("gen-data: dataset identical to the first call",
                 digest == self.digests[0], digest[:16])]

    def final_checks(self):
        ref = self.reference
        if self.seed == ref["seed"]:
            digest = self.digests[0]
        else:
            digest = dataset_digest(make_dataset(self.ac, ref["seed"], self.tiny))
        return [("gen-data: reference dataset digest", digest == ref["digest"], digest[:16])]

    def extra_metrics(self, recs):
        return {"gen_bags_per_s": (statistics.median(r["items"] / r["gen_s"] for r in recs),
                                   "1/s"),
                "dataset_write_s": (statistics.median(r["write_s"] for r in recs), "s"),
                "dataset_read_s": (statistics.median(r["read_s"] for r in recs), "s")}


class Sweep(Workload):
    """``acmil ablate`` over M in {1, 5} x 2 seeds, one epoch, one job."""

    name = "sweep"
    throughput = "sweep_runs_per_s"

    def configure(self):
        self.data_path = self.workdir / "data.json"
        self.config_path = self.workdir / "config.json"
        self.grid_path = self.workdir / "grid.json"
        self.runs = len(SWEEP_GRID["M"]) * SWEEP_GRID["n_seeds"]

    def prepare(self):
        self.ac.data.save_dataset(make_dataset(self.ac, self.seed, self.tiny), self.data_path)
        self.config_path.write_text(json.dumps(
            {"train": {"epochs": SWEEP_EPOCHS, "seed": self.seed}}))
        self.grid_path.write_text(json.dumps(SWEEP_GRID))

    def setup(self):
        # what each (cell, seed) run reads before it trains
        self.ds = self.ac.data.load_dataset(self.data_path)

    def warmup(self):
        cold_train_step(self.ac, self.ds, self.ac.optim.TrainConfig(seed=self.seed))

    def op(self, index):
        out = self.workdir / f"sweep{index}"
        argv = ["ablate", "--data", str(self.data_path), "--config", str(self.config_path),
                "--grid", str(self.grid_path), "--jobs", str(SWEEP_JOBS), "--out", str(out)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ac.cli.main(argv)
        dt = time.perf_counter() - t0
        return {"op_s": dt, "items": self.runs, "code": code, "out": out}

    def check_op(self, rec):
        out = rec.pop("out")
        code = rec.pop("code")
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        shutil.rmtree(out)
        bad = [r["cell"] for r in rows if r["n_ok"] != r["n_seeds"] or r["errors"]]
        return [("sweep: ablate exit code 0", code == 0, str(code)),
                ("sweep: every cell has n_ok == n_seeds and no errors",
                 len(rows) == len(SWEEP_GRID["M"]) and not bad, ",".join(bad))]


WORKLOADS = {w.name: w for w in (TrainDefault, EvalBigBag, GenData, Sweep)}


def gradcheck(ac, seed: int) -> tuple[str, bool, str]:
    """Two-seed finite-difference check at the tiny dims."""
    gc = ac.gradcheck
    worst = gc.max_suite_error(gc.run_suite([seed, seed + 1]))
    return ("grad-check: run_suite max error below ERROR_BOUND",
            bool(worst < gc.ERROR_BOUND), f"{worst:.3e}")
