"""The benchmark's workloads: per-pass command lists with their known answers.

A pass is one closed-loop sweep over a workload's commands.  Pass ``p`` of a
run with seed ``s`` draws its inputs from ``default_rng([s, p, workload])``,
so a seed fixes every input, and the passes of one run cover several draws
(label permutations, angle quadruples, model bases) instead of one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import inputs
import oracle


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m nogo_lab.cli *argv``."""

    name: str
    argv: tuple[str, ...]
    expect: int
    report: Optional[str] = None  # structured report written with --out
    verdict: Optional[str] = None  # expected check verdict inside the report
    # A known defect (ROADMAP 2a): the command should exit 2 but crashes with
    # a traceback today.  That crash counts as failed without making the run
    # incorrect; a crash or time-out of any other command is a wrong answer.
    known_defect: bool = False


def _structured(argv: list[str], out: str) -> tuple[str, ...]:
    return (*argv, "--format", "structured", "--out", out)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2**32)))


# dim -> (verify-commutation trials, verify-conditioning trials).  Each
# command spends about 1.2 s past interpreter start on a 2 GHz core.  Equal
# weights keep the median and the tail inside one cluster of times, so they
# do not jump with the mix of commands in a run's last, partial pass.
CHAIN_TRIALS = {4: (165, 187), 16: (71, 111), 32: (16, 48)}


def operator_chains(directory: str, rng: np.random.Generator) -> list[Command]:
    """Both verifiers at dims 4, 16 and 32: opcore/quantum/nogo, no LP."""
    cmds = []
    for dim, (t_comm, t_cond) in CHAIN_TRIALS.items():
        for command, trials in (("verify-commutation", t_comm), ("verify-conditioning", t_cond)):
            out = os.path.join(directory, f"{command}-{dim}.json")
            argv = [command, "--dim", str(dim), "--trials", str(trials), "--seed", _seed(rng)]
            cmds.append(Command(f"{command}/dim{dim}", _structured(argv, out), 0, out))
    return cmds


# (n, m, visibility, copies per pass): n settings on side 1 and m on side
# 2.  The singlet cases end on the Farkas ray, the Werner cases on a phase-1
# solution with a certificate.  Each copy is a fresh label permutation.
# Solve time under Bland's rule depends on the permutation; on a 2 GHz core
# it is 0.14-0.25 s for the 3x3 singlet, 0.29-0.57 s for 3x3 Werner and
# 0.34-0.85 s for the 3x4 singlet.  The three 3x4 singlets are the slowest
# of a pass's ten commands, so the 90th percentile falls among them, and
# each spends about 40% of its time in the simplex; over a whole pass the
# share is about 22%, the rest being mostly interpreter start-up.  The 4x4
# singlet (1.0-2.8 s, or 1.6-4.5 s per command), 4x4 Werner (7-19 s) and
# 5x5 (11-25 s) leave too few, too scattered draws in a run: with two 4x4
# singlets per pass the 90th percentile's spread over five seeds was 0.37.
EXACT_LP_CASES = [(2, 2, 1.0, 1), (3, 3, 1.0, 2), (3, 4, 1.0, 3), (2, 2, 0.5, 1), (3, 3, 0.5, 3)]


def exact_lp(directory: str, rng: np.random.Generator) -> list[Command]:
    """Scaling-family scenarios decided by the exact rational simplex."""
    werner = inputs.write_json(
        os.path.join(directory, "werner-0.5.state"), {"matrix": inputs.matrix_json(inputs.werner(0.5))}
    )
    cmds = []
    for n, m, vis, copies in EXACT_LP_CASES:
        side1, side2 = inputs.scaling_angles(n, m)
        expect = oracle.scaling_verdict(side1, side2, vis)
        kind = f"{'singlet' if vis == 1.0 else f'werner-{vis}'}-{n}x{m}"
        for copy in range(copies):
            stem = os.path.join(directory, f"{kind}-{copy}")
            scenario = inputs.scaling_scenario(stem + ".scenario", n, m, rng)
            argv = ["feasibility", scenario, "--state", "singlet" if vis == 1.0 else werner]
            out = stem + ".json"
            cmds.append(Command(f"feasibility/{kind}", _structured(argv, out), expect, out, oracle.VERDICT[expect]))
    return cmds


def _angles(rng: np.random.Generator, want: int, visibility: float = 1.0) -> tuple[float, ...]:
    while True:
        angles = tuple(round(float(x), 1) for x in rng.uniform(0, 180, 4))
        d = oracle.angles_distance(angles, visibility)
        if abs(d) >= oracle.MARGIN and (d > 0) == (want == oracle.FEASIBLE):
            return angles


def cli_sweep(directory: str, rng: np.random.Generator) -> list[Command]:
    """Many short commands: every fixture, overrides, generated models and
    malformed inputs, so import, parsing, validation and serialization
    dominate.  Each error path runs beside a success path."""
    cmds = []

    def add(name, argv, expect, verdict=None, known_defect=False):
        if expect == oracle.ERROR:
            cmds.append(Command(name, tuple(argv), expect, known_defect=known_defect))
        else:
            out = os.path.join(directory, name.replace("/", "-") + ".json")
            cmds.append(Command(name, _structured(argv, out), expect, out, verdict))

    for fixture, (expect, verdict) in oracle.FIXTURES.items():
        add(f"feasibility/{fixture}", ["feasibility", fixture], expect, verdict)
    add("check-model/commuting", ["check-model", "commuting.model"], 0)

    for want, label in ((oracle.FEASIBLE, "local"), (oracle.INFEASIBLE, "violating")):
        q = ",".join(map(str, _angles(rng, want)))
        add(f"feasibility/chsh-angles-{label}", ["feasibility", "chsh", "--angles", q], want, oracle.VERDICT[want])
    q = ",".join(map(str, _angles(rng, oracle.FEASIBLE, visibility=0.0)))
    add("feasibility/chsh-maximally-mixed",
        ["feasibility", "chsh", "--state", "maximally-mixed", "--angles", q], oracle.FEASIBLE, "pass")

    for dim in (8, 16, 32):
        path = inputs.write_json(os.path.join(directory, f"commuting-{dim}.model"), inputs.commuting_model(dim, rng))
        add(f"check-model/generated-dim{dim}", ["check-model", path], 0)

    # Known exit-code defects: today these crash with a traceback and exit 1.
    for name, path in inputs.crash_models(directory, rng).items():
        add(f"check-model/{name}", ["check-model", path], oracle.ERROR, known_defect=True)

    truncated = inputs.write_text(os.path.join(directory, "truncated.scenario"), '{"kind": "scenario", "dim": 4,')
    add("feasibility/truncated-json", ["feasibility", truncated], oracle.ERROR)
    add("feasibility/unknown-state", ["feasibility", "chsh", "--state", "bell-" + _seed(rng)], oracle.ERROR)
    add("feasibility/short-angles", ["feasibility", "chsh", "--angles", "0,90,45"], oracle.ERROR)
    add("verify-conditioning/dim2", ["verify-conditioning", "--dim", "2", "--seed", _seed(rng)], oracle.ERROR)
    return cmds


@dataclass(frozen=True)
class Workload:
    build: Callable[[str, np.random.Generator], list[Command]]
    cap_s: float  # per-command time cap, far above the slowest expected command


WORKLOADS = {
    "operator-chains": Workload(operator_chains, 60.0),
    "exact-lp": Workload(exact_lp, 90.0),
    "cli-sweep": Workload(cli_sweep, 30.0),
}


def build_pass(workload: str, seed: int, index: int, root: str) -> list[Command]:
    """Write pass ``index``'s inputs under ``root`` and return its commands
    in a seeded random order, so a run that ends inside a pass still
    samples every kind of command evenly."""
    directory = os.path.join(root, f"pass{index}")
    os.makedirs(directory, exist_ok=True)
    key = list(WORKLOADS).index(workload)
    cmds = WORKLOADS[workload].build(directory, np.random.default_rng([seed, index, key]))
    order = np.random.default_rng([seed, index, key, 1]).permutation(len(cmds))
    return [cmds[i] for i in order]
