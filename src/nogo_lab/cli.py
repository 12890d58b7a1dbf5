"""Command-line front end.

Four batch commands, all seeded and deterministic:

* ``verify-commutation``   - run both forced-commutation verifiers over
  random commuting and noncommuting projector pairs;
* ``verify-conditioning``  - run the conditioned-state uniqueness check over
  random (state, projector) pairs (needs dimension >= 3);
* ``check-model``          - run every phase-space axiom checker on a model file;
* ``feasibility``          - decide classical-model existence for a scenario
  file (bundled fixtures resolvable by name).

Each command gathers :class:`~nogo_lab.check.Check` records from the
library (the phase-space rules come from :func:`nogo_lab.hvmodel.check_model`)
and :func:`_emit` serializes them; this module holds no rule logic.

Exit codes: 0 all checks pass / feasible; 1 a checked property fails or the
scenario is infeasible; 2 configuration, parse, or validation errors.
Structured reports with the same (command, seed, tolerances) are
byte-identical; see :mod:`nogo_lab.rng` for the generator contract.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, fileio, hvmodel, nogo
from .check import EXPECTED, FAIL, PASS, Check
from .errors import ConfigError, NogoLabError, NumericalAmbiguity
from .feasibility import (
    chsh_scenario,
    chsh_value,
    classical_chsh_bound,
    _chsh_shape,
    hv_feasibility,
    Scenario,
    make_scenario,
)
from .opcore import (
    CLUSTER_GAP,
    TOL,
    commutator_norm,
    random_density_matrix,
    random_projector_matrix,
    trace_inner,
)
from .quantum import Density, Projector
from .rng import MAX_SEED, trial_generator

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

MIN_DIM, MAX_DIM = 2, 32


@dataclass(frozen=True)
class RunConfig:
    command: str
    path: Optional[str] = None
    dim: int = 3
    trials: int = 100
    seed: int = 0
    tol: float = TOL
    cluster_gap: float = CLUSTER_GAP
    out: Optional[str] = None
    format: str = "human"
    state: Optional[str] = None
    angles: Optional[tuple[float, float, float, float]] = None

    def validate(self) -> None:
        if not MIN_DIM <= self.dim <= MAX_DIM:
            raise ConfigError(f"--dim must be in [{MIN_DIM}, {MAX_DIM}], got {self.dim}")
        if self.trials < 1:
            raise ConfigError(f"--trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError("--seed must be a 64-bit unsigned integer")
        if self.tol <= 0 or self.cluster_gap <= 0:
            raise ConfigError("--tol and --cluster-gap must be positive")
        if self.format not in ("human", "structured"):
            raise ConfigError(f"--format must be human or structured, got {self.format}")


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "command": cfg.command,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "clusterGap": cfg.cluster_gap,
        "format": cfg.format,
    }
    if cfg.command in ("verify-commutation", "verify-conditioning"):
        echo["dim"] = cfg.dim
        echo["trials"] = cfg.trials
    if cfg.path is not None:
        echo["path"] = os.path.basename(cfg.path)
    if cfg.state is not None:
        echo["state"] = cfg.state
    if cfg.angles is not None:
        echo["angles"] = list(cfg.angles)
    return echo


def _emit(cfg: RunConfig, checks: list[Check], extra: dict | None = None) -> int:
    """Write the report; exit 0 when every check is ok, else 1."""
    exit_code = EXIT_OK if all(c.ok for c in checks) else EXIT_VIOLATION
    report = {
        "schemaVersion": fileio.SCHEMA_VERSION,
        "tool": f"nogo-lab {__version__}",
        "config": _config_echo(cfg),
        "checks": [c.as_dict() for c in checks],
        "summary": {
            "total": len(checks),
            "failed": sum(1 for c in checks if not c.ok),
            "exitCode": exit_code,
        },
    }
    if extra:
        report.update(extra)
    if cfg.format == "structured":
        payload = fileio.report_bytes(report)
    else:
        lines = [f"nogo-lab {cfg.command} (seed={cfg.seed})"]
        for c in checks:
            lines.append(f"  [{c.verdict:>9}] {c.name}  residual={c.residual:.3e}")
        for key, val in (extra or {}).items():
            lines.append(f"  {key}: {val}")
        lines.append(f"exit {exit_code}")
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return exit_code


def cmd_verify_commutation(cfg: RunConfig) -> int:
    """Both forced-commutation routes on random pairs; the routes must agree
    pairwise and commuting pairs must end with a vanishing commutator."""
    cfg.validate()
    worst_final = 0.0
    min_witness_ratio = np.inf
    disagreements = 0
    fails = 0
    tallies = {"pass": 0, "hypothesis-violated": 0}
    for t in range(cfg.trials):
        gen = trial_generator(cfg.seed, t)
        for commuting in (True, False):
            sample = nogo.random_commuting_pair if commuting else nogo.random_noncommuting_pair
            a, b = sample(gen, cfg.dim)
            chain = nogo.check_forced_commutation(a, b, tol=cfg.tol)
            alt = nogo.check_forced_commutation_alt(a, b, tol=cfg.tol)
            if chain.verdict != alt.verdict:
                disagreements += 1
            for rep in (chain, alt):
                if rep.verdict == FAIL:
                    fails += 1
                else:
                    tallies[rep.verdict] += 1
            if commuting:
                worst_final = max(worst_final, commutator_norm(a.mat, b.mat))
            elif chain.witness is not None:
                m = b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat
                gap = float(np.linalg.norm(m, 2))
                realized = abs(trace_inner(chain.witness.mat, m).real)
                if gap > 0:
                    min_witness_ratio = min(min_witness_ratio, realized / gap)
    if not np.isfinite(min_witness_ratio):
        min_witness_ratio = 1.0

    checks = [
        Check.judged(
            f"commuting pairs end with AB = BA (dim {cfg.dim})",
            worst_final,
            worst_final <= 1e-8 and fails == 0,
            rule="forced-commutation",
        ),
        Check(
            f"noncommuting pairs are flagged with a witness (dim {cfg.dim})",
            1.0 - float(min_witness_ratio),
            EXPECTED if min_witness_ratio >= 0.9 else FAIL,
            rule="trace-symmetry",
        ),
        Check.judged(
            "both verification routes agree on every verdict",
            float(disagreements),
            disagreements == 0,
            rule="route-agreement",
        ),
    ]
    return _emit(cfg, checks, extra={"verdictCounts": tallies})


def cmd_verify_conditioning(cfg: RunConfig) -> int:
    """Uniqueness of the conditioned state on random (state, projector) pairs."""
    cfg.validate()
    if cfg.dim < 3:
        raise ConfigError(
            f"conditioning uniqueness is only meaningful for dimension >= 3 "
            f"(lattice measures are trace functionals there); got --dim {cfg.dim}"
        )
    worst = 0.0
    fails = 0
    for t in range(cfg.trials):
        gen = trial_generator(cfg.seed, t)
        d = Density.from_matrix(random_density_matrix(gen, cfg.dim))
        rank = int(gen.integers(1, cfg.dim))
        b = Projector.from_matrix(random_projector_matrix(gen, cfg.dim, rank), tol=1e-8)
        rep = nogo.check_conditional_uniqueness(d, b, trials=6, gen=gen, tol=cfg.tol)
        worst = max(worst, rep.parts[0].residual)
        if not rep.ok:
            fails += 1
    check = Check.judged(
        f"conditioned-state uniqueness on {cfg.trials} random pairs (dim {cfg.dim})",
        worst,
        fails == 0,
        rule="conditional-uniqueness",
    )
    return _emit(cfg, [check])


def cmd_check_model(cfg: RunConfig) -> int:
    """Every axiom checker on a model file; exit 1 on any flagged rule."""
    cfg.validate()
    model = fileio.load_model(fileio.resolve_input_path(cfg.path))
    return _emit(cfg, hvmodel.check_model(model, cfg.tol, cfg.cluster_gap))


def _named_state(name: str, dim: int) -> Density:
    from .feasibility import singlet_state

    if name == "singlet":
        if dim != 4:
            raise ConfigError(f"state 'singlet' needs a 4-dimensional scenario, got {dim}")
        return singlet_state()
    if name == "maximally-mixed":
        return Density.maximally_mixed(dim)
    if name == "ghz":
        if dim != 8:
            raise ConfigError(f"state 'ghz' needs an 8-dimensional scenario, got {dim}")
        v = np.zeros(8, dtype=np.complex128)
        v[0] = v[7] = 1 / np.sqrt(2)
        return Density.pure(v)
    if os.path.exists(name):
        data = fileio._load_json(name)
        mat = data.get("matrix", data.get("state"))
        if mat is None:
            raise ConfigError(f"state file {name} needs a 'matrix' field")
        return Density.from_matrix(fileio.matrix_from_json(mat, name), tol=1e-7)
    raise ConfigError(
        f"unknown state {name!r}: use singlet, maximally-mixed, ghz, or a file path"
    )


def _apply_overrides(cfg: RunConfig, scenario: Scenario) -> Scenario:
    if cfg.angles is not None:
        if _chsh_shape(scenario) is None:
            raise ConfigError("--angles only applies to 2x2 dichotomic scenarios")
        state = scenario.state
        scenario = chsh_scenario(state=state, angles=cfg.angles, name=scenario.name)
    if cfg.state is not None:
        state = _named_state(cfg.state, scenario.dim)
        scenario = make_scenario(
            scenario.dim,
            scenario.items,
            list(scenario.contexts),
            state=state,
            name=scenario.name,
        )
    return scenario


def cmd_feasibility(cfg: RunConfig) -> int:
    """Classical-model existence for a scenario; exit 0 feasible, 1 not."""
    cfg.validate()
    path = fileio.resolve_input_path(cfg.path)
    scenario = fileio.load_scenario(path)
    scenario = _apply_overrides(cfg, scenario)
    if scenario.state is None:
        raise ConfigError(
            "scenario has no state; provide one with --state"
        )

    extra: dict = {"scenario": scenario.name}
    shape = _chsh_shape(scenario)
    if shape is not None:
        (a1, a2), (b1, b2) = shape
        s_val = chsh_value(
            scenario.state,
            scenario.items[a1].mat,
            scenario.items[a2].mat,
            scenario.items[b1].mat,
            scenario.items[b2].mat,
            tol=cfg.tol,
        )
        extra["chshValue"] = s_val
        extra["classicalBound"] = str(classical_chsh_bound(scenario))

    result = hv_feasibility(scenario, tol=cfg.tol)
    check = Check(
        f"classical model existence for {scenario.name}",
        0.0,
        PASS if result.feasible else result.status,
        rule="assignment-feasibility",
    )
    if result.feasible:
        extra["certificate"] = {
            "labels": list(result.labels),
            "weights": [
                {"assignment": list(a), "weight": str(w)} for a, w in result.certificate
            ],
        }
    elif result.violated_constraint is not None:
        extra["violatedConstraint"] = {
            "aggregate": result.violated_constraint,
            "required": str(result.required),
            "maxAttainable": str(result.max_attainable),
        }
    return _emit(cfg, [check], extra=extra)


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--angles expects four comma-separated degrees: a,a',b,b'")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"--angles: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nogo-lab",
        description="Machine checks for classical models of quantum measurement scenarios",
    )
    parser.add_argument("--version", action="version", version=f"nogo-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, batch: bool) -> None:
        if batch:
            p.add_argument("--dim", type=int, default=3)
            p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=None, help="defaults to $NOGO_LAB_SEED or 0")
        p.add_argument("--tol", type=float, default=TOL)
        p.add_argument("--cluster-gap", type=float, default=CLUSTER_GAP)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("human", "structured"), default="human")

    p = sub.add_parser(
        "verify-commutation",
        help="forced-commutation verifiers on random projector pairs",
    )
    common(p, batch=True)

    p = sub.add_parser(
        "verify-conditioning",
        help="conditioned-state uniqueness on random (state, projector) pairs",
    )
    common(p, batch=True)

    p = sub.add_parser("check-model", help="run all axiom checkers on a model file")
    p.add_argument("path")
    common(p, batch=False)

    p = sub.add_parser("feasibility", help="classical-model existence for a scenario")
    p.add_argument("path")
    p.add_argument("--state", default=None, help="singlet | maximally-mixed | ghz | file")
    p.add_argument("--angles", default=None, help="a,a',b,b' in degrees (2x2 scenarios)")
    common(p, batch=False)

    return parser


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("NOGO_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"NOGO_LAB_SEED is not an integer: {env!r}") from exc
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            path=getattr(args, "path", None),
            dim=getattr(args, "dim", 3),
            trials=getattr(args, "trials", 100),
            seed=_resolve_seed(args.seed),
            tol=args.tol,
            cluster_gap=args.cluster_gap,
            out=args.out,
            format=args.format,
            state=getattr(args, "state", None),
            angles=_parse_angles(args.angles) if getattr(args, "angles", None) else None,
        )
        handler = {
            "verify-commutation": cmd_verify_commutation,
            "verify-conditioning": cmd_verify_conditioning,
            "check-model": cmd_check_model,
            "feasibility": cmd_feasibility,
        }[cfg.command]
        return handler(cfg)
    except NumericalAmbiguity as exc:
        print(f"nogo-lab: undecidable at this precision: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NogoLabError as exc:
        print(f"nogo-lab: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
