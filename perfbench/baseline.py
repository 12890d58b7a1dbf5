"""Record a baseline: sets of runs of every workload, plus one traced run each.

Usage (from the repository root):

    python3 perfbench/baseline.py --runs 10 --sets 2 --out perfbench/baseline.json

Set ``k`` runs ``run.py --trace 0`` on every workload with seeds
``k*RUNS+1 .. (k+1)*RUNS``, one run at a time; the sets run one after the
other.  Per set, workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.  Per
workload and metric it then compares each set's median with the first
set's: the change must stay within the bound for the sets to agree.
Last, it makes one ``--trace 1`` run per workload for the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAPPING = [
    {"layer": ["import.total_s", "import.scipy_s"], "moves": ["setup_s", "verdict_p50_s"],
     "on": "cli-sweep, where import is most of every command; a small share on the others"},
    {"layer": ["opcore.spectral_decompose.*", "opcore.SpectralResolution.validate.*", "opcore.opnorm.*",
               "opcore.commutator_norm.*"], "moves": ["wall_s", "verdict_p90_s"],
     "on": "operator-chains; no change expected on exact-lp"},
    {"layer": ["quantum.from_matrix.*"], "moves": ["wall_s"], "on": "operator-chains, cli-sweep"},
    {"layer": ["nogo.*"], "moves": ["wall_s"], "on": "operator-chains"},
    {"layer": ["feasibility.*"], "moves": ["wall_s", "peak_rss_mb"], "on": "exact-lp"},
    {"layer": ["simplex.*"], "moves": ["wall_s", "verdict_p90_s"], "on": "exact-lp; zero on operator-chains"},
    {"layer": ["hvmodel.rules.*"], "moves": ["verdict_p50_s"], "on": "cli-sweep"},
    {"layer": ["fileio.load.self_s", "fileio.report_bytes.*"], "moves": ["verdict_p50_s"], "on": "cli-sweep"},
    {"layer": ["cli.main.total_s", "cli.self_s"], "moves": ["all; verdict time minus cli.main.total_s is the per-process overhead"],
     "on": "all"},
]


def machine() -> dict:
    try:
        import numpy

        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
        versions = {"numpy": numpy.__version__}
        import scipy

        versions["scipy"] = scipy.__version__
    except (ImportError, KeyError, AttributeError):
        blas, versions = "unknown", {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas}, default threading",
        "python": platform.python_version(),
        **versions,
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def run_set(spec: dict, name: str, seeds: range) -> dict:
    results = [run(name, seed, spec["run_seconds"], 0) for seed in seeds]
    entry = {
        "seeds": [seeds.start, seeds.stop - 1],
        "correct": all(r["correct"] for r in results),
        "failed_share": [r["failed"] / r["attempted"] for r in results],
        "failed_attempted": [[r["failed"], r["attempted"]] for r in results],
        "elapsed_s": [r["elapsed_s"] for r in results],
        "end_to_end": {},
    }
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        entry["end_to_end"][m["name"]] = {
            "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": m["bound"], "values": values,
        }
        print(f"{name:16} seeds {seeds.start}-{seeds.stop - 1} {m['name']:14} median {median:9.4f} {m['unit']:4}"
              f" spread {spread:.3f} (bound {m['bound']}, a third {m['bound'] / 3:.3f})", flush=True)
    return entry


def agreement(spec: dict, sets: list[dict]) -> dict:
    """Each set's median against the first set's, as a share of the first."""
    out = {}
    for m in spec["end_to_end"]:
        medians = [s["end_to_end"][m["name"]]["median"] for s in sets]
        changes = [x / medians[0] - 1 for x in medians[1:]]
        out[m["name"]] = {
            "medians": medians, "changes": changes, "bound": m["bound"],
            "within_bound": all(abs(c) <= m["bound"] for c in changes),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "command": f"python3 perfbench/baseline.py --runs {args.runs} --sets {args.sets}",
        "machine": machine(),
        "layer_mapping": LAYER_MAPPING,
        "workloads": {},
    }
    try:
        report["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        report["commit"] = None

    names = [w["name"] for w in spec["workloads"]]
    sets: dict[str, list[dict]] = {name: [] for name in names}
    for k in range(args.sets):
        for name in names:
            sets[name].append(run_set(spec, name, range(k * args.runs + 1, (k + 1) * args.runs + 1)))
    for name in names:
        traced = run(name, 1, spec["run_seconds"], 1)
        report["workloads"][name] = {
            "runs_per_set": args.runs,
            "sets": sets[name],
            "agreement": agreement(spec, sets[name]),
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, a in report["workloads"][name]["agreement"].items():
            print(f"{name:16} {metric:14} medians {[round(x, 4) for x in a['medians']]}"
                  f" change {[round(c, 3) for c in a['changes']]} bound {a['bound']}", flush=True)

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
