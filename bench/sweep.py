"""Repeat bench/run.py over several seeds and summarise the spread.

    python3 bench/sweep.py --workloads exact points-k64 --seeds 1-10 --seconds 22 \
        [--trace 0] [--json bench/out/sweep.json]

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json. Runs are made
one after another, each in its own process, as the benchmark's command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's result object and its metadata line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})\n"
                           f"{proc.stderr}")
    meta = next((json.loads(line[len("# metadata "):]) for line in lines
                 if line.startswith("# metadata ")), {})
    return json.loads(lines[-1]), meta


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, help="also write the summary here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, args.trace) for s in args.seeds]
        results = [r for r, _ in runs]
        ok &= all(r["correct"] for r in results)
        summary[workload] = {
            "metadata": {k: v for k, v in runs[0][1].items() if k != "seed"},
            "seeds": args.seeds,
            "seconds": seconds,
            "trace": args.trace,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summarise(results, bounds),
        }
        print(f"{workload}: {summary[workload]['attempted']} units, "
              f"{summary[workload]['failed']} failed", flush=True)
        for name, m in summary[workload]["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:<32} median {m['median']:<12.6g} {m['unit']:<6} "
                  f"spread {spread:<7} bound {m['bound']}", flush=True)
    if args.json:
        # End-to-end and per-layer summaries share one file, one key each.
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc["per_layer" if args.trace else "end_to_end"] = summary
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
