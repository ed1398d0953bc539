"""Benchmark of the sparsecombine command line, end to end and layer by layer.

    python3 bench/run.py --workload hosg3-serial --seed 1 --seconds 55 --trace 0

Runs units of one workload (see workloads.py) in this process through
``sparsecombine.cli.main`` for ``--seconds`` seconds, checks every unit's
output, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (unit wall time median
and tail, peak RSS, set-up time). With ``--trace 1`` untraced and traced units
alternate, and the metrics are the per-layer ones taken from the traced units'
spans, plus the tracing overhead. The spans are written to
``bench/out/spans-<workload>.csv`` when the run ends.

The program is imported from ``src/`` of the checkout this file sits in; the
exit code is 2 when it is not there and 1 when a unit fails its gates.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))
from spans import Hooks, Recorder, self_times  # noqa: E402
from workloads import DEFAULT_TOL, WORKLOADS, check_step, run_step  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="study gate: largest |last value - exact| (smoke tests lower it)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cli():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sparsecombine.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sparsecombine imported from {cli.__file__}, not {SRC}")
    return cli


def setup_probe(workload: str) -> int:
    """Child process: get ready to run ``workload``, then say so."""
    cli = import_cli()
    parser = cli.build_parser()
    for step in WORKLOADS[workload].steps:
        parser.parse_args(step.command(0, OUT / "probe"))
    print("ready", flush=True)
    return 0


def measure_setup(workload: str) -> float:
    """Median time from starting a fresh interpreter to a process ready to
    run the workload (imports of numpy, scipy and sparsecombine included)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", "0", "--seconds", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return statistics.median(times)


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.fft

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in threads},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    above it, but never below the median. With 20 samples or fewer no such
    percentile lies above the median, so the median is reported."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def layer_metrics(spans, unit_wall: float, out_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced unit."""
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def count(name):
        return len(by[name])

    def dur(name):
        return sum(s.end - s.start for s in by[name])

    def self_s(name):
        return sum(selfs[s.sid] for s in by[name])

    def total(name):
        return sum(s.value for s in by[name] if s.value is not None)

    lookups = count("combine.cache")
    misses = sum(1 for s in by["combine.cache"] if s.value)
    accounted = sum(selfs.values())
    return {
        "pde.transform.calls": count("pde.transform"),
        "pde.transform.s": dur("pde.transform"),
        "pde.transform.bytes_computed": total("pde.transform"),
        "pde.solve.calls": count("pde.solve"),
        "pde.solve.nodes": total("pde.solve"),
        "pde.solve.s": dur("pde.solve"),
        "pde.solve.self_s": self_s("pde.solve"),
        "pde.rhs.calls": count("pde.rhs"),
        "pde.rhs.s": dur("pde.rhs"),
        "grid.interp.calls": count("grid.interp"),
        "grid.interp.s": dur("grid.interp"),
        "combine.evaluate.calls": count("combine.evaluate"),
        "combine.evaluate.s": dur("combine.evaluate"),
        "combine.evaluate.self_s": self_s("combine.evaluate"),
        "combine.cache.lookups": lookups,
        "combine.cache.misses": misses,
        "combine.cache.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "combine.cache.wait_s": self_s("combine.cache"),
        "combine.cache.bytes_computed": total("combine.cache"),
        "combine.workers_seen": len({s.thread for s in by["pde.solve"]}),
        "combine.plan_build.calls": count("combine.plan_build"),
        "combine.plan_build.s": dur("combine.plan_build"),
        "combine.plan.terms": total("combine.plan_build"),
        "combine.study.self_s": self_s("combine.study"),
        "combine.plan_export.s": dur("combine.plan_export"),
        "cli.self_s": self_s("cli"),
        "cli.out_bytes": out_bytes,
        "verify.s": dur("verify"),
        "verify.checks": count("verify"),
        "verify.failed": total("verify"),
        "trace.unit_s": unit_wall,
        "trace.accounted_frac": accounted / unit_wall,
    }


def write_spans(workload: str, spans) -> Path:
    path = OUT / f"spans-{workload}.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("unit", "span", "parent", "name", "start_s", "end_s", "thread", "value"))
        for s in spans:
            w.writerow((s.unit, s.sid, s.parent, s.name, f"{s.start:.9f}",
                        f"{s.end:.9f}", s.thread, "" if s.value is None else s.value))
    return path


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Measure for ``args.seconds``; returns (result object, report extras)."""
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    setup_s = measure_setup(workload.name) if not args.trace else None
    cli = import_cli()
    rec = Recorder() if args.trace else None
    hooks = Hooks(rec) if args.trace else None

    walls = {False: [], True: []}
    layers, failures, references = [], [], {}
    attempted = failed = 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and attempted % 2 == 1
            outs = [Path(tmp) / f"step{i}.out" for i in range(len(workload.steps))]
            fails = []
            if traced:
                rec.unit = attempted + 1
                hooks.install()
            rcs = []
            t0 = time.perf_counter()
            try:
                for step, out in zip(workload.steps, outs):
                    if traced:
                        rcs.append(rec.call("cli", run_step, (cli, step, args.seed, out)))
                    else:
                        rcs.append(run_step(cli, step, args.seed, out))
            except Exception as exc:  # a unit that raises is a failed unit
                fails.append(f"{type(exc).__name__}: {exc}")
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    hooks.uninstall()
            walls[traced].append(wall)
            for i, (step, rc, out) in enumerate(zip(workload.steps, rcs, outs)):
                try:
                    step_fails, rows = check_step(step, rc, out, references.get(i), args.tol)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    step_fails, rows = [f"unreadable output: {exc}"], None
                fails += step_fails
                references.setdefault(i, rows)
            if traced:
                unit_spans = [s for s in rec.spans if s.unit == rec.unit]
                out_bytes = sum(o.stat().st_size for o in outs if o.exists())
                layers.append(layer_metrics(unit_spans, wall, out_bytes))
            attempted += 1
            if fails:
                failed += 1
                failures.append(f"unit {attempted}: " + "; ".join(fails))
            done = time.perf_counter() >= deadline
            if done and (not args.trace or (walls[True] and walls[False])):
                break

    extras = {"units": attempted, "failures": failures,
              "walls": " ".join(f"{w:.3f}" for w in walls[False])}
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in layers)
            for name in layers[0] if name not in hooks.absent
        }
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        extras["absent"] = sorted(hooks.absent)
        extras["spans"] = str(write_spans(workload.name, rec.spans).relative_to(ROOT))
    else:
        value, pct = tail(walls[False])
        extras["tail"] = f"p{pct:.1f} of {len(walls[False])} units"
        metrics = {
            "wall_s.p50": statistics.median(walls[False]),
            "wall_s.tail": value,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
    extras["fail_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    return result, extras


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsecombine" / "cli.py").is_file():
        print(f"error: no sparsecombine sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload)
    result, extras = run(args)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# metadata " + json.dumps(metadata(args.seed)))
    print(f"# units={extras['units']} fail_frac={extras['fail_frac']:.6g}"
          + (f" tail={extras['tail']}" if "tail" in extras else ""))
    print(f"# untraced unit walls (s): {extras['walls']}")
    for line in extras["failures"]:
        print(f"# FAILED {line}")
    for name in extras.get("absent", ()):
        print(f"# warning: {name} absent (its hook is missing)")
    if "spans" in extras:
        print(f"# spans written to {extras['spans']}")
    for name, m in result["metrics"].items():
        print(f"# {name:<32} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
