"""Time-to-verdict benchmark for the nogo-lab command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the benchmark runs the real CLI (``python -m nogo_lab.cli``
with ``src`` on the path) as child processes, one at a time, over passes of
the workload's command list for ``--seconds``.
Every exit code and structured report is checked against the closed-form
answers in :mod:`oracle`.  It prints the end-to-end metrics named in
``BENCHMARK.json``.

With ``--trace 1`` it measures the ``import`` layer with ``-X importtime``
and runs the same passes in one child process (:mod:`trace_child`) that
calls ``nogo_lab.cli.main`` directly, untraced and then traced, and prints
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every command whose answer differs from the known one; ``correct`` is false
when any of them is something other than a known defect's crash (see
``workloads.Command.known_defect``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import spans
import workloads
from oracle import report_problem

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

SETUP_SAMPLES = 6
IMPORT_SAMPLES = 3
TRACE_PASSES = 8
# Every run must end well inside three minutes, whatever the program does.
HARD_LIMIT_S = 150.0
TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float
    status: str  # ok | defect (a known defect showed) | wrong
    detail: str = ""


def judge(cmd: workloads.Command, code: Optional[int], crashed: bool, seconds: float) -> Outcome:
    """Only a known defect's own crash (a traceback and exit 1) is excused;
    any other crash, a time-out, a wrong exit code or a wrong report is a
    wrong answer."""
    if code is None:
        return Outcome(cmd.name, seconds, "wrong", "exceeded the per-command cap")
    if crashed:
        status = "defect" if cmd.known_defect and code == 1 else "wrong"
        return Outcome(cmd.name, seconds, status, f"exit {code} with a traceback; expected exit {cmd.expect}")
    if code != cmd.expect:
        return Outcome(cmd.name, seconds, "wrong", f"exit {code}; expected exit {cmd.expect}")
    if cmd.report is not None:
        problem = report_problem(cmd.report, code, cmd.verdict)
        if problem:
            return Outcome(cmd.name, seconds, "wrong", problem)
    return Outcome(cmd.name, seconds, "ok")


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.cap = workloads.WORKLOADS[workload].cap_s
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("NOGO_LAB_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def python(self, args: list[str], timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.workdir, env=self.env, capture_output=True, timeout=timeout
        )

    def run_cli(self, cmd: workloads.Command) -> Outcome:
        cap = min(self.cap, self.remaining())
        start = time.perf_counter()
        try:
            proc = self.python(["-m", "nogo_lab.cli", *cmd.argv], max(cap, 0.0))
        except subprocess.TimeoutExpired:
            return judge(cmd, None, False, time.perf_counter() - start)
        return judge(cmd, proc.returncode, TRACEBACK in proc.stderr, time.perf_counter() - start)

    def setup_sample(self) -> float:
        return self.timed_python(["-c", "import nogo_lab.cli"])[0]

    def timed_python(self, args: list[str]) -> tuple[float, bytes]:
        start = time.perf_counter()
        proc = self.python(args, self.remaining())
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"python {' '.join(args)} failed:\n{proc.stderr.decode(errors='replace')}")
        return elapsed, proc.stderr

    # -- untraced: end-to-end metrics ---------------------------------------

    def end_to_end(self) -> tuple[list[Outcome], dict, dict]:
        first = workloads.build_pass(self.workload, self.seed, 0, str(self.workdir))
        self.run_cli(first[0])  # warm-up: .pyc compilation, file caches
        # The window of about --seconds holds whole passes, plus one
        # fresh-interpreter import every sixth of it; spreading those out
        # keeps a slow spell of the machine off most of them.  Another pass
        # starts only if at least half of it fits in the window, so the
        # window ends at the pass boundary nearest --seconds.  Whole passes
        # keep the mix of commands, and with it failed/attempted, the same
        # in every run of the same program.
        window = last_setup = time.perf_counter()
        setup = [self.setup_sample()]
        outcomes: list[Outcome] = []
        index, cmds = 0, first
        while True:
            for cmd in cmds:
                outcomes.append(self.run_cli(cmd))
                if time.perf_counter() - last_setup >= self.seconds / SETUP_SAMPLES:
                    last_setup = time.perf_counter()
                    setup.append(self.setup_sample())
            elapsed = time.perf_counter() - window
            per_pass = elapsed / (index + 1)
            if elapsed + per_pass / 2 >= self.seconds or self.remaining() < 2 * per_pass:
                break
            index += 1
            cmds = workloads.build_pass(self.workload, self.seed, index, str(self.workdir))

        # One pass's wall time, from every command of the window: the sum,
        # over the commands of a pass, of the window's mean time for that
        # kind of command, so the passes' draws average out.
        by_name: dict[str, list[float]] = {}
        for o in outcomes:
            by_name.setdefault(o.name, []).append(o.seconds)
        verdicts = [o.seconds for o in outcomes]
        failed = sum(o.status != "ok" for o in outcomes)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(statistics.fmean(by_name[c.name]) for c in first),
            "verdict_p50_s": statistics.median(verdicts),
            "verdict_p90_s": statistics.quantiles(verdicts, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "failed_share": failed / len(outcomes),
        }
        passes = f"{len(outcomes) / len(first):.1f} passes"
        counts = {
            "setup_s": f"n={len(setup)} interpreters, median",
            "wall_s": f"{len(first)} commands, each the mean of its kind over n={len(verdicts)} commands, {passes}",
            "verdict_p50_s": f"n={len(verdicts)} commands",
            "verdict_p90_s": f"n={len(verdicts)} commands over {passes}, pooled",
            "peak_rss_mb": f"max over {len(verdicts) + len(setup) + 1} child processes",
            "failed_share": f"{failed}/{len(outcomes)} commands",
        }
        return outcomes, metrics, counts

    # -- traced: per-layer metrics ------------------------------------------

    def import_layer(self) -> dict[str, float]:
        """``import.total_s``: every import of a fresh ``import nogo_lab.cli``.
        ``import.scipy_s``: the cumulative time of each outermost scipy
        import, i.e. what importing scipy lazily would take off start-up."""
        totals, scipy = [], []
        for _ in range(IMPORT_SAMPLES):
            _, err = self.timed_python(["-X", "importtime", "-c", "import nogo_lab.cli"])
            entries = []  # (depth, name, cumulative us) in the order printed: children first
            for line in err.decode().splitlines():
                if line.startswith("import time:") and "cumulative" not in line:
                    _self_us, cum_us, name = line[len("import time:") :].split("|")
                    depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
                    entries.append((depth, name.strip(), int(cum_us)))
            total = sum(cum for depth, _, cum in entries if depth == 0)
            outer_scipy, stack = 0, []  # walk parents before children
            for depth, name, cum in reversed(entries):
                while stack and stack[-1][0] >= depth:
                    stack.pop()
                inside = bool(stack) and stack[-1][1]
                is_scipy = name.split(".")[0] == "scipy"
                if is_scipy and not inside:
                    outer_scipy += cum
                stack.append((depth, inside or is_scipy))
            totals.append(total / 1e6)
            scipy.append(outer_scipy / 1e6)
        return {"import.total_s": statistics.median(totals), "import.scipy_s": statistics.median(scipy)}

    def traced(self) -> tuple[list[Outcome], dict, dict]:
        metrics = self.import_layer()
        # The untraced and the traced run of a pass get the same inputs in
        # separate directories, so each writes and is judged on its own reports.
        plan = [
            {key: workloads.build_pass(self.workload, self.seed, p, str(self.workdir / key))
             for key in ("untraced", "traced")}
            for p in range(TRACE_PASSES)
        ]
        spec = {
            "warmup": list(plan[0]["untraced"][0].argv),
            "passes": [{key: [list(c.argv) for c in cmds] for key, cmds in pair.items()} for pair in plan],
            "budget_s": max(self.seconds - (time.perf_counter() - self.started), 1.0),
        }
        spec_path, result_path = self.workdir / "trace-spec.json", self.workdir / "trace-result.json"
        spec_path.write_text(json.dumps(spec))
        child = Path(__file__).resolve().parent / "trace_child.py"
        self.timed_python([str(child), str(spec_path), str(result_path)])
        results = json.loads(result_path.read_text())

        outcomes: list[Outcome] = []
        per_pass: list[dict[str, float]] = []
        for pair, result in zip(plan, results):
            for key, cmds in pair.items():
                outcomes += [judge(c, r["code"], r["crash"] is not None, r["seconds"]) for c, r in zip(cmds, result[key])]
            layer = layer_metrics(result["trace"])
            untraced = sum(r["seconds"] for r in result["untraced"])
            layer["trace.untraced_main_s"] = untraced
            layer["trace.overhead_ratio"] = layer["cli.main.total_s"] / untraced - 1
            per_pass.append(layer)
        for name in per_pass[0]:
            metrics[name] = statistics.median(p[name] for p in per_pass)
        counts = {name: f"n={len(per_pass)} traced passes, median" for name in per_pass[0]}
        counts.update({"import.total_s": f"n={IMPORT_SAMPLES}", "import.scipy_s": f"n={IMPORT_SAMPLES}"})
        return outcomes, metrics, counts


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, from its span tree."""
    stats = spans.aggregate(trace)
    names = trace["names"]

    def total(key: str, match) -> float:
        return sum(s[key] for name, s in stats.items() if match(name))

    def one(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = total("self_s", lambda n: n.startswith(layer + "."))
    for name in ("opcore.spectral_decompose", "opcore.SpectralResolution.validate", "opcore.opnorm",
                 "opcore.commutator_norm", "nogo.trace_symmetry_gap", "simplex.solve_equality_feasibility"):
        short = "simplex.solve" if name.startswith("simplex.") else name
        out[f"{short}.calls"] = one(name, "calls")
        out[f"{short}.self_s"] = one(name, "self_s")
    for name in ("opcore.spectral_decompose", "opcore.SpectralResolution.validate"):
        out[f"{name}.total_s"] = one(name, "total_s")

    from_matrix = lambda n: n.startswith("quantum.") and n.endswith(".from_matrix")
    out["quantum.from_matrix.calls"] = total("calls", from_matrix)
    out["quantum.from_matrix.self_s"] = total("self_s", from_matrix)
    for name in ("nogo.check_forced_commutation", "nogo.check_forced_commutation_alt",
                 "nogo.check_conditional_uniqueness", "feasibility.make_scenario",
                 "feasibility.enumerate_assignments", "feasibility.hv_feasibility", "fileio.report_bytes"):
        out[f"{name}.self_s"] = one(name, "self_s")
    rule = lambda n: n.startswith("hvmodel.check_") and n.endswith("_rule")
    out["hvmodel.rules.calls"] = total("calls", rule)
    out["hvmodel.rules.self_s"] = total("self_s", rule)
    out["fileio.load.self_s"] = total("self_s", lambda n: n.startswith("fileio.") and n != "fileio.report_bytes")
    out["cli.main.total_s"] = one("cli.main", "total_s")

    attrs = [(names[trace["name_of"][int(i)]], int(i), a) for i, a in trace["attrs"].items()]
    enum = [a for name, _, a in attrs if name == "feasibility.enumerate_assignments"]
    solves = [
        (trace["end_of"][i] - trace["start_of"][i], a)
        for name, i, a in attrs
        if name == "simplex.solve_equality_feasibility"
    ]
    feasible = [a for _, a in solves if a["feasible"]]
    out["feasibility.assignments"] = sum(a["assignments"] for a in enum)
    out["feasibility.admissible_ratio"] = (
        out["feasibility.assignments"] / sum(a["space"] for a in enum) if enum else 0.0
    )
    out["simplex.feasible_s"] = sum(d for d, a in solves if a["feasible"])
    out["simplex.infeasible_s"] = sum(d for d, a in solves if not a["feasible"])
    out["simplex.lp_rows"] = sum(a["rows"] for _, a in solves)
    out["simplex.lp_cols"] = sum(a["cols"] for _, a in solves)
    out["simplex.support_ratio"] = (
        sum(a["nonzero"] for a in feasible) / sum(a["cols"] for a in feasible) if feasible else 0.0
    )
    out["fileio.report_bytes.bytes"] = sum(a["bytes"] for name, _, a in attrs if name == "fileio.report_bytes")
    out["trace.spans"] = len(trace["name_of"])
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nogo_lab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no nogo_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, workdir)
        outcomes, metrics, counts = runner.traced() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.status != "ok"]
    mode = "traced, in-process" if args.trace else "untraced, one child per command"
    print(f"{args.workload} seed={args.seed} ({mode}): {len(outcomes)} commands, {len(failed)} failed")
    for name in sorted(metrics):
        unit = next((m["unit"] for m in wanted if m["name"] == name), "ratio")
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit:<6} ({counts.get(name, '')})")
    for name in sorted({o.name for o in failed}):
        hits = [o for o in failed if o.name == name]
        print(f"  FAILED {name} x{len(hits)}: {hits[0].status}: {hits[0].detail}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
