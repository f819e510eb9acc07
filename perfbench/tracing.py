"""Span tracing around the calls into each `acmil` module, and the
per-layer metrics derived from the spans.

The tracer replaces module attributes that the program looks up at call
time (for example ``acmil.optim.mba_forward``, which ``train`` and
``evaluate`` call) with wrappers that record a span: name, start, end,
parent span and run id.  ``Rng.next_u64`` is too hot for a span per call, so
it only bumps a counter; each span records how many draws happened inside
it.  Spans are kept in memory and written out once, by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import math
import os
import statistics
import time
from pathlib import Path

# (module or class path, attribute, span name, kind of attribute recorded)
TARGETS = [
    ("acmil.optim", "train", "optim.train", None),
    ("acmil.cli", "train", "optim.train", None),
    ("acmil.optim", "evaluate", "optim.evaluate", None),
    ("acmil.cli", "evaluate", "optim.evaluate", None),
    ("acmil.optim", "_epoch_eval", "optim.val", None),
    ("acmil.optim", "adam_step", "optim.adam_step", "params"),
    ("acmil.optim", "init_model", "model.init", None),
    ("acmil.optim", "mba_forward", "mil.forward", "instances"),
    ("acmil.mil", "stkim_mask", "mil.mask", "mask"),
    ("acmil.optim", "total_loss", "losses.total_loss", "clamp_hits"),
    ("acmil.optim", "backward", "losses.backward", None),
    ("acmil.model.Model", "copy", "model.copy", None),
    ("acmil.cli", "save_checkpoint", "model.checkpoint_write", None),
    ("acmil.model", "load_checkpoint", "model.checkpoint_read", None),
    ("acmil.optim", "kmeans", "metrics.kmeans", None),
    ("acmil.optim", "macro_auc", "metrics.auc", None),
    ("acmil.optim", "macro_f1", "metrics.f1", None),
    ("acmil.optim", "v_measure", "metrics.v_measure", None),
    ("acmil.optim", "instance_localization_auc", "metrics.localization", None),
    ("acmil.optim", "attention_entropy", "metrics.attention_stats", None),
    ("acmil.optim", "topk_cumulative", "metrics.attention_stats", None),
    ("acmil.data", "generate_synthetic", "data.generate", None),
    ("acmil.data", "split_dataset", "data.split", None),
    ("acmil.data", "save_dataset", "data.save", None),
    ("acmil.data", "load_dataset", "data.load", None),
    ("acmil.cli", "load_dataset", "data.load", None),
    ("acmil.jsonio", "dump", "jsonio.dump", "bytes_out"),
    ("acmil.jsonio", "load", "jsonio.load", "bytes_in"),
    ("acmil.cli", "cmd_ablate", "cli.ablate", None),
    ("acmil.cli", "_ablate_run", "cli.run", "run_failed"),
]

# span tuple fields
SID, PARENT, NAME, T0, T1, RUN, DRAWS, ATTR = range(8)

def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


# mil.mask span attribute: masking inactive (evaluation), active, renormalised
MASK_OFF, MASK_ON, MASK_RENORM = 0, 1, 2


def _attribute(kind, args, kwargs, result):
    """Per-span number computed after the span closed; None if unknown."""
    try:
        if kind == "instances":
            return int(args[0].n_instances)
        if kind == "mask":
            training = kwargs["training"] if "training" in kwargs else args[3]
            cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
            if not (training or cfg.enabled_at_eval):
                return MASK_OFF
            return MASK_RENORM if result.renormalized else MASK_ON
        if kind == "params":
            return int(sum(p.size for _, p in args[0].parameters()))
        if kind == "clamp_hits":
            from acmil.losses import LOG_CLAMP

            trace, label = args[0], int(args[1])
            probs = [trace.bag_probs] + [bt.probs for bt in trace.branches]
            return sum(1 for p in probs if float(p[label]) <= LOG_CLAMP)
        if kind in ("bytes_out", "bytes_in"):
            path = args[1] if kind == "bytes_out" else args[0]
            return os.path.getsize(path)
        if kind == "run_failed":
            return int(result[2] is None)
    except Exception:  # an attribute is diagnostic; never fail the call for it
        return None
    return None


class _DiscardCounter(logging.Handler):
    """Counts stkim's "mask discarded" log records (its only signal)."""

    def __init__(self, tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        if "discarded" in record.getMessage() and self.tracer.active:
            self.tracer.discards[self.tracer.run_id] = (
                self.tracer.discards.get(self.tracer.run_id, 0) + 1
            )


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.draws = 0
        self.discards: dict[int, int] = {}
        self.run_id = 0
        self.active = False
        self.missing: list[str] = []
        self._next_id = 1
        self._patches: list[tuple] = []
        self._handler = _DiscardCounter(self)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            draws0 = tracer.draws
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                tracer.stack.pop()
                attr = _attribute(kind, args, kwargs, result) if kind else None
                tracer.spans.append(
                    (sid, parent, name, t0, t1, tracer.run_id, tracer.draws - draws0, attr)
                )

        return wrapper

    def _wrap_draw(self, fn):
        tracer = self

        @functools.wraps(fn)
        def next_u64(self_rng):
            tracer.draws += 1
            return fn(self_rng)

        return next_u64

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        self.missing = []
        for owner_path, attr, name, kind in TARGETS:
            try:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))
        rng_cls = _resolve("acmil.rng.Rng")
        self._patches.append((rng_cls, "next_u64", rng_cls.next_u64))
        rng_cls.next_u64 = self._wrap_draw(rng_cls.next_u64)
        log = logging.getLogger("acmil.mil")
        self._old_level = log.level
        log.setLevel(logging.INFO)
        log.addHandler(self._handler)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        log = logging.getLogger("acmil.mil")
        log.removeHandler(self._handler)
        log.setLevel(self._old_level)

    # -- output -----------------------------------------------------------
    def write(self, path: Path, meta: dict) -> None:
        fields = ["id", "parent", "name", "start_ns", "end_ns", "run", "draws", "attr"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh)


# -- analysis -----------------------------------------------------------------

P50_MIN = 20  # nearest-rank p50 leaves >= 10 samples above it
P90_MIN = 100  # nearest-rank p90 leaves >= 10 samples above it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans) -> dict[int, int]:
    """Span duration minus the union of its children's intervals, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[SID], [])):
            lo, hi = max(lo, s[T0]), min(hi, s[T1])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[SID]] = s[T1] - s[T0] - covered
    return out


def layer_table(spans) -> list[dict]:
    """One row per span name: calls, total and self time, p50 and p90."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
        durs = [(s[T1] - s[T0]) / 1e6 for s in group]
        n = len(durs)
        rows.append({
            "name": name,
            "calls": n,
            "total_ms": sum(durs),
            "self_ms": sum(selfs[s[SID]] for s in group) / 1e6,
            "p50_ms": percentile(durs, 0.5),
            "p50_ok": n >= P50_MIN,
            "p90_ms": percentile(durs, 0.9),
            "p90_ok": n >= P90_MIN,
        })
    return rows


# name -> (unit, better); the order is the order in BENCHMARK.json
PER_LAYER = {
    "mil.forward_ms_p50": ("ms", "lower"),
    "mil.forward_ms_p90": ("ms", "lower"),
    "mil.instances_per_s": ("1/s", "higher"),
    "mil.mask_ms": ("ms", "lower"),
    "mil.mask_renorm_ratio": ("ratio", "higher"),
    "mil.mask_discards": ("count", "lower"),
    "losses.total_loss_ms": ("ms", "lower"),
    "losses.backward_ms_p50": ("ms", "lower"),
    "losses.backward_ms_p90": ("ms", "lower"),
    "losses.clamp_hits": ("count", "lower"),
    "optim.adam_ms_p50": ("ms", "lower"),
    "optim.adam_params": ("count", "lower"),
    "optim.steps": ("count", "lower"),
    "optim.val_s": ("s", "lower"),
    "optim.evaluate_self_s": ("s", "lower"),
    "model.copy_ms": ("ms", "lower"),
    "model.init_ms": ("ms", "lower"),
    "model.checkpoint_write_ms": ("ms", "lower"),
    "model.checkpoint_read_ms": ("ms", "lower"),
    "metrics.kmeans_ms": ("ms", "lower"),
    "metrics.auc_ms": ("ms", "lower"),
    "metrics.localization_ms": ("ms", "lower"),
    "metrics.attention_stats_ms": ("ms", "lower"),
    "rng.draws": ("count", "lower"),
    "rng.ns_per_draw": ("ns", "lower"),
    "data.generate_s": ("s", "lower"),
    "data.split_ms": ("ms", "lower"),
    "jsonio.write_mb_per_s": ("MB/s", "higher"),
    "jsonio.read_mb_per_s": ("MB/s", "higher"),
    "jsonio.bytes_written": ("bytes", "lower"),
    "jsonio.bytes_read": ("bytes", "lower"),
    "cli.run_s_p50": ("s", "lower"),
    "cli.parallel_efficiency": ("ratio", "higher"),
    "cli.runs_failed": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# percentile metric -> (span name, quantile, minimum samples)
PERCENTILES = {
    "mil.forward_ms_p50": ("mil.forward", 0.5, P50_MIN),
    "mil.forward_ms_p90": ("mil.forward", 0.9, P90_MIN),
    "losses.backward_ms_p50": ("losses.backward", 0.5, P50_MIN),
    "losses.backward_ms_p90": ("losses.backward", 0.9, P90_MIN),
    "optim.adam_ms_p50": ("optim.adam_step", 0.5, P50_MIN),
    "cli.run_s_p50": ("cli.run", 0.5, P50_MIN),
}


def samples_short(spans) -> bool:
    """True while a percentile whose layer ran has too few samples."""
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    return any(0 < counts.get(span, 0) < need for span, _, need in PERCENTILES.values())


def per_layer_metrics(spans, discards: dict[int, int], op_runs: list[int],
                      overhead_ratio: float) -> tuple[dict, dict]:
    """Metric values and the sample count behind each one.

    Times are per call, over every traced span of that name.  Counts
    (draws, steps, bytes, discards, clamp hits, failed runs) are per
    workload operation: the median over the traced operations, which is
    exact when the operations repeat the same inputs.
    """
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def durs(name, scale=1e6):
        return [(s[T1] - s[T0]) / scale for s in by_name.get(name, [])]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def per_op(values_by_run):
        return statistics.median(values_by_run.get(r, 0) for r in op_runs) if op_runs else 0

    def sum_attr_by_run(name):
        out: dict[int, int] = {}
        for s in by_name.get(name, []):
            if s[ATTR] is not None:
                out[s[RUN]] = out.get(s[RUN], 0) + s[ATTR]
        return out

    m: dict[str, float] = {}
    n: dict[str, int] = {}
    for metric, (span, q, _) in PERCENTILES.items():
        scale = 1e9 if metric.startswith("cli.") else 1e6
        values = durs(span, scale)
        m[metric] = percentile(values, q) if values else 0.0
        n[metric] = len(values)

    fwd = by_name.get("mil.forward", [])
    fwd_ns = sum(s[T1] - s[T0] for s in fwd)
    m["mil.instances_per_s"] = sum(s[ATTR] or 0 for s in fwd) / (fwd_ns / 1e9) if fwd_ns else 0.0
    n["mil.instances_per_s"] = len(fwd)
    # masking that ran: calls made with masking off (evaluation) do not count
    masks = [s for s in by_name.get("mil.mask", []) if s[ATTR] in (MASK_ON, MASK_RENORM)]
    m["mil.mask_ms"] = mean([(s[T1] - s[T0]) / 1e6 for s in masks])
    m["mil.mask_renorm_ratio"] = (
        sum(1 for s in masks if s[ATTR] == MASK_RENORM) / len(masks) if masks else 0.0
    )
    n["mil.mask_ms"] = n["mil.mask_renorm_ratio"] = len(masks)
    m["mil.mask_discards"] = per_op(discards)

    m["losses.total_loss_ms"] = mean(durs("losses.total_loss"))
    n["losses.total_loss_ms"] = len(by_name.get("losses.total_loss", []))
    m["losses.clamp_hits"] = per_op(sum_attr_by_run("losses.total_loss"))

    adam = by_name.get("optim.adam_step", [])
    m["optim.adam_params"] = max((s[ATTR] or 0 for s in adam), default=0)
    steps: dict[int, int] = {}
    for s in adam:
        steps[s[RUN]] = steps.get(s[RUN], 0) + 1
    m["optim.steps"] = per_op(steps)
    m["optim.val_s"] = mean(durs("optim.val", 1e9))
    n["optim.val_s"] = len(by_name.get("optim.val", []))
    selfs = self_times(spans)
    evals = by_name.get("optim.evaluate", [])
    m["optim.evaluate_self_s"] = mean([selfs[s[SID]] / 1e9 for s in evals])
    n["optim.evaluate_self_s"] = len(evals)

    for metric, span in (("model.copy_ms", "model.copy"), ("model.init_ms", "model.init"),
                         ("model.checkpoint_write_ms", "model.checkpoint_write"),
                         ("model.checkpoint_read_ms", "model.checkpoint_read"),
                         ("metrics.kmeans_ms", "metrics.kmeans"),
                         ("metrics.auc_ms", "metrics.auc"),
                         ("metrics.localization_ms", "metrics.localization"),
                         ("metrics.attention_stats_ms", "metrics.attention_stats"),
                         ("data.split_ms", "data.split")):
        m[metric] = mean(durs(span))
        n[metric] = len(by_name.get(span, []))
    m["data.generate_s"] = mean(durs("data.generate", 1e9))
    n["data.generate_s"] = len(by_name.get("data.generate", []))

    draws_by_run: dict[int, int] = {}
    for s in spans:  # the outermost spans hold every draw
        if s[PARENT] is None:
            draws_by_run[s[RUN]] = draws_by_run.get(s[RUN], 0) + s[DRAWS]
    m["rng.draws"] = per_op(draws_by_run)
    draw_spans = by_name.get("data.generate", []) + by_name.get("model.init", [])
    draw_count = sum(s[DRAWS] for s in draw_spans)
    m["rng.ns_per_draw"] = (
        sum(s[T1] - s[T0] for s in draw_spans) / draw_count if draw_count else 0.0
    )
    n["rng.ns_per_draw"] = draw_count

    for direction, span, key in (("write", "jsonio.dump", "jsonio.bytes_written"),
                                 ("read", "jsonio.load", "jsonio.bytes_read")):
        group = by_name.get(span, [])
        total_bytes = sum(s[ATTR] or 0 for s in group)
        total_ns = sum(s[T1] - s[T0] for s in group)
        m[f"jsonio.{direction}_mb_per_s"] = (
            total_bytes / 1e6 / (total_ns / 1e9) if total_ns else 0.0
        )
        n[f"jsonio.{direction}_mb_per_s"] = len(group)
        m[key] = per_op(sum_attr_by_run(span))

    runs = by_name.get("cli.run", [])
    ablates = by_name.get("cli.ablate", [])
    effs = []
    for a in ablates:
        busy = sum(s[T1] - s[T0] for s in runs if s[RUN] == a[RUN])
        effs.append(busy / (a[T1] - a[T0]))
    m["cli.parallel_efficiency"] = statistics.median(effs) if effs else 0.0
    n["cli.parallel_efficiency"] = len(effs)
    m["cli.runs_failed"] = per_op(sum_attr_by_run("cli.run"))
    m["trace.overhead_ratio"] = overhead_ratio
    return {k: m[k] for k in PER_LAYER}, n
