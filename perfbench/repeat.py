"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload gen-data --seeds 1-10 [--out FILE]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics are also compared with their bound from BENCHMARK.json; the aim is a
spread below a third of the bound.  ``--out`` writes the runs and the
summary as JSON, the form the baselines in this directory are kept in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}")
            print(done.stdout[-2000:] + done.stderr[-2000:])
            return 1
        result = json.loads(lines[-1])
        facts = next((json.loads(l[6:]) for l in lines if l.startswith("facts ")), None)
        named = next((json.loads(l[6:]) for l in lines if l.startswith("named ")), None)
        runs.append({"seed": seed, "result": result, "named": named, "facts": facts})
        print(f"seed {seed}: " + "  ".join(f"{k}={m['value']:.5g}"
                                           for k, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        summary[name] = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name]["unit"] = metric["unit"]
        bound = bounds.get(name)
        s = summary[name]
        verdict = "" if bound is None else (
            f"bound {bound:g}: " + ("steady" if s["spread"] < bound / 3 else
                                    "within bound" if s["spread"] <= bound else "TOO WIDE"))
        print(f"{name:26s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
              f" spread {s['spread']:.4f}  {verdict}")
    if runs[0]["named"]:
        for name in runs[0]["named"]:
            summary.setdefault("named", {})[name] = summarize(
                [r["named"][name]["value"] for r in runs])
    if args.out:
        doc = {"workload": args.workload, "seconds": seconds, "trace": args.trace,
               "facts": runs[0]["facts"], "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
