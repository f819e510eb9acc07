"""Seeded benchmark for the `acmil` package in ../src.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12
    python3 perfbench/run.py --workload eval-bigbag --seed 1 --seconds 12 --trace 1 --tiny

Inputs are made from the seed before anything is timed: in a separate
process with ``--trace 0``, so that the peak RSS covers only set-up,
warm-up and the operations.  With ``--trace 0`` it times the workload's
operations for ``--seconds`` seconds, untraced, and measures set-up in fresh
processes spread over the run.  With ``--trace 1`` it runs part of the time
untraced and the rest with spans around every call into the program, and
reports the per-layer metrics.
Either way it checks the program's outputs, prints every metric by name
with its unit, then prints the result as one JSON line, last.  It exits 1
if a check fails and 2 if the program cannot be imported from ../src.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

PROBES = 9  # fresh processes per run that measure set-up; setup_s is their median
UNTRACED_SHARE = 0.3  # share of --seconds a traced run spends untraced
TRACE_DEADLINE_S = 120.0  # a traced run stops adding operations after this
MODULES = ("bags", "cli", "data", "gradcheck", "jsonio", "mil", "model", "optim", "rng")


class ImportFailure(Exception):
    pass


def import_acmil():
    """The acmil modules from ../src, and from nowhere else."""
    if not (SRC / "acmil" / "__init__.py").is_file():
        raise ImportFailure(f"no acmil package under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    try:
        mods = {name: importlib.import_module(f"acmil.{name}") for name in MODULES}
    except ImportError as exc:
        raise ImportFailure(f"cannot import acmil from {SRC}: {exc}") from exc
    origin = Path(mods["optim"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportFailure(f"acmil was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def machine_facts() -> dict:
    """What a result depends on besides the code; nothing here is changed."""
    import numpy as np

    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    facts = {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        facts[var] = os.environ.get(var)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        pass
    return facts


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak RSS of this process (ablate runs in it: the sweep uses one job)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- steps in a fresh process -----------------------------------------------------

def step_main(args) -> int:
    """``prepare``: write the seeded inputs.  ``probe``: import, read the
    inputs and make the cold first call, timed."""
    t0 = time.perf_counter()
    ac = import_acmil()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](ac, args.seed, args.tiny, Path(args.workdir), {})
    if args.step == "prepare":
        w.prepare()
        return 0
    w.setup()
    w.warmup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def run_step(args, step: str, workdir: Path) -> str:
    cmd = [sys.executable, str(HERE / "run.py"), "--step", step, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{step} failed: {done.stderr.strip()[-400:]}")
    return done.stdout


class Probes:
    """Set-up probes spread evenly over a run's operation time, so that they
    see the machine as the operations do."""

    def __init__(self, args, workdir: Path, seconds: float, count: int, checks: list):
        self.args, self.workdir, self.checks = args, workdir, checks
        self.seconds, self.count = seconds, count
        self.values: list[float] = []

    def after_op(self, spent: float) -> None:
        if len(self.values) < self.count and spent >= len(self.values) * self.seconds / self.count:
            self.run_one()

    def finish(self) -> None:
        while len(self.values) < self.count:
            self.run_one()

    def run_one(self) -> None:
        try:
            out = run_step(self.args, "probe", self.workdir)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            self.checks.append((f"{self.args.workload}: set-up probes complete", False, str(exc)))
            self.count = len(self.values)
            return
        self.values.append(json.loads(out.strip().splitlines()[-1])["setup_s"])


# -- one workload ----------------------------------------------------------------

class Loop:
    """Runs operations, checks each one untimed, and keeps the records."""

    def __init__(self, w, checks: list):
        self.w = w
        self.checks = checks
        self.records: list[dict] = []

    def run(self, seconds: float, first_index: int, tracer=None, more=lambda: False,
            deadline: float = float("inf"), after_op=lambda spent: None) -> list[dict]:
        recs: list[dict] = []
        spent = 0.0
        index = first_index
        while not recs or ((spent < seconds or more()) and time.monotonic() < deadline):
            if tracer is not None:
                tracer.run_id = index
                tracer.active = True
            try:
                rec = self.w.op(index)
            except Exception as exc:  # a failed operation is a failed check; stop
                self.checks.append((f"{self.w.name}: operation {index} completes", False,
                                    f"{type(exc).__name__}: {exc}"))
                break
            finally:
                if tracer is not None:
                    tracer.active = False
            self.checks.extend(self.w.check_op(rec))
            spent += rec["op_s"]
            recs.append(rec)
            index += 1
            after_op(spent)
        self.records.extend(recs)
        return recs


def run_workload(args) -> int:
    ac = import_acmil()
    from tracing import PER_LAYER, Tracer, layer_table, per_layer_metrics, samples_short
    from workloads import WORKLOADS, gradcheck

    bench = load_json(BENCHMARK)
    reference = load_json(HERE / "reference.json")
    started = time.monotonic()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](ac, args.seed, args.tiny, workdir, reference)
        checks: list[tuple[str, bool, str]] = []
        loop = Loop(w, checks)
        layer_values: dict = {}
        if args.trace:
            # inputs and set-up, traced as run 0: on the workloads that train,
            # making the dataset is where generate_synthetic and split run
            tracer = Tracer()
            tracer.install()
            tracer.run_id = 0
            w.prepare()
            w.setup()
            tracer.uninstall()
            w.warmup()
            plain = loop.run(args.seconds * UNTRACED_SHARE, 1)
            tracer.install()
            tracer.active = False
            traced = loop.run(args.seconds * (1 - UNTRACED_SHARE), 1 + len(plain), tracer,
                              more=lambda: samples_short(tracer.spans),
                              deadline=started + TRACE_DEADLINE_S)
            tracer.uninstall()
            overhead = (statistics.median(r["op_s"] for r in traced)
                        / statistics.median(r["op_s"] for r in plain)) if plain and traced else 0.0
            op_runs = list(range(1 + len(plain), 1 + len(plain) + len(traced)))
            layer_values, samples = per_layer_metrics(tracer.spans, tracer.discards, op_runs,
                                                      overhead)
        else:
            run_step(args, "prepare", workdir)
            w.setup()
            w.warmup()
            probes = Probes(args, workdir, args.seconds, 1 if args.tiny else PROBES, checks)
            loop.run(args.seconds, 1, after_op=probes.after_op)
            probes.finish()
            setups = probes.values
        rss = peak_rss_mb()
        if w.uses_model:
            checks.append(gradcheck(ac, args.seed))
        checks.extend(w.final_checks())
        # a failed operation appears once, as its failed check
        attempted = len(loop.records) + len(checks)
        failed = sum(1 for _, ok, _ in checks if not ok)
        correct = failed == 0
        facts = machine_facts()

        print(f"# {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
              f"{' tiny' if args.tiny else ''} ops={len(loop.records)}")
        for name in dict.fromkeys(name for name, _, _ in checks):
            runs = [(ok, detail) for n, ok, detail in checks if n == name]
            bad = [detail for ok, detail in runs if not ok]
            print(f"check {'FAIL' if bad else 'PASS'} x{len(runs)}  {name}"
                  f"  [{bad[0] if bad else runs[0][1]}]")
        if args.trace:
            metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layer_values.items()}
            rows = layer_table(tracer.spans)
            print(f"{'span':28s} {'calls':>7s} {'total_ms':>10s} {'self_ms':>10s}"
                  f" {'p50_ms':>9s} {'p90_ms':>9s}")
            for r in rows:
                p50 = f"{r['p50_ms']:.4f}" if r["p50_ok"] else "-"
                p90 = f"{r['p90_ms']:.4f}" if r["p90_ok"] else "-"
                print(f"{r['name']:28s} {r['calls']:7d} {r['total_ms']:10.2f}"
                      f" {r['self_ms']:10.2f} {p50:>9s} {p90:>9s}")
            for k, v in layer_values.items():
                n = f" (n={samples[k]})" if k in samples else ""
                print(f"metric {k} = {v:.6g} {PER_LAYER[k][0]}{n}")
            trace_dir = OUT / "traces" / f"{w.name}-seed{args.seed}-{os.getpid()}"
            trace_dir.mkdir(parents=True, exist_ok=True)
            meta = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                    "tiny": args.tiny, "facts": facts, "missing_targets": tracer.missing,
                    "untraced_ops": len(plain), "traced_ops": len(traced)}
            tracer.write(trace_dir / "spans.json", meta)
            with open(trace_dir / "layers.json", "w", encoding="utf-8") as fh:
                json.dump({"meta": meta, "table": rows, "metrics": layer_values,
                           "samples": samples}, fh, indent=1)
            print(f"trace written to {trace_dir.relative_to(ROOT)}")
        else:
            recs = loop.records
            values = {
                "items_per_s": statistics.median(r["items"] / r["op_s"] for r in recs)
                if recs else 0.0,
                "setup_s": statistics.median(setups) if setups else 0.0,
                "peak_rss_mb": rss,
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            named = {w.throughput: (values["items_per_s"], "1/s"),
                     **(w.extra_metrics(recs) if recs else {}),
                     "setup_s": (values["setup_s"], "s"),
                     "peak_rss_mb": (rss, "MB"), "failed_ratio": (failed / attempted, "ratio")}
            for k, (v, unit) in named.items():
                print(f"metric {k} = {v:.6g} {unit}")
            print("named " + json.dumps({k: {"value": v, "unit": u}
                                         for k, (v, u) in named.items()}))
            print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        print("facts " + json.dumps(facts))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric by name."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                              text=True, timeout=900, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        status = status or done.returncode
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
            continue
        result = json.loads(lines[-1])
        named = next((json.loads(l[6:]) for l in lines if l.startswith("named ")),
                     result["metrics"])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for k, m in named.items():
            print(f"   {k:24s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the self-test")
    parser.add_argument("--step", choices=("prepare", "probe"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.step:
            return step_main(args)
        if args.workload == "all":
            return run_all(args)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
        return run_workload(args)
    except ImportFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
