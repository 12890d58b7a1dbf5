"""Command-line front end.

Four deterministic commands, each a thin call into the library:

* ``verify-commutation``   - :func:`nogo_lab.nogo.commutation_batch`, both
  forced-commutation verifiers over seeded random commuting and
  noncommuting projector pairs;
* ``verify-conditioning``  - :func:`nogo_lab.nogo.conditioning_batch`, the
  conditioned-state uniqueness check over seeded random (state, projector)
  pairs (needs dimension >= 3);
* ``check-model``          - :func:`nogo_lab.hvmodel.check_model`, every
  phase-space axiom checker on a model file;
* ``feasibility``          - :func:`nogo_lab.feasibility.hv_feasibility`,
  classical-model existence for a scenario file (bundled fixtures
  resolvable by name).

This module parses flags, calls the command's library function and
serializes the :class:`~nogo_lab.check.Check` records it returns
(:func:`_emit`); it holds no rule logic.  Each handler imports its own
library layer, so a command loads no other command's modules.
``_COMMANDS`` is the one flag table: each command accepts exactly the flags
it reads, and the structured report's ``config`` echoes them.

Exit codes: 0 all checks pass / feasible; 1 a checked property fails or the
scenario is infeasible; 2 configuration, parse, or validation errors; 3 an
internal error (a bug: the traceback goes to stderr).
Structured reports with the same flags are byte-identical; see
:mod:`nogo_lab.rng` for the generator contract.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__, fileio
from .check import PASS, Check
from .errors import ConfigError, NogoLabError, NumericalAmbiguity
from .opcore import CLUSTER_GAP, TOL
from .quantum import Density
from .rng import MAX_SEED

if TYPE_CHECKING:
    from .feasibility import Scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3

MIN_DIM, MAX_DIM = 2, 32


def _config_echo(args: argparse.Namespace) -> dict:
    """The flags the command read, camelCased.  ``--out`` and unset optional
    flags are left out, and ``path`` is echoed by its base name, so the
    bytes do not depend on where the input is read or the report written."""
    echo = {}
    for key, value in vars(args).items():
        if key == "out" or value is None:
            continue
        head, *rest = key.split("_")
        echo[head + "".join(w.title() for w in rest)] = (
            os.path.basename(value) if key == "path" else value
        )
    return echo


def _emit(args: argparse.Namespace, checks: list[Check], extra: dict | None = None) -> int:
    """Write the report; exit 0 when every check is ok, else 1."""
    exit_code = EXIT_OK if all(c.ok for c in checks) else EXIT_VIOLATION
    report = {
        "schemaVersion": fileio.REPORT_SCHEMA_VERSION,
        "tool": f"nogo-lab {__version__}",
        "config": _config_echo(args),
        "checks": [c.as_dict() for c in checks],
        "summary": {
            "total": len(checks),
            "failed": sum(1 for c in checks if not c.ok),
            "exitCode": exit_code,
        },
    }
    if extra:
        report.update(extra)
    if args.format == "structured":
        payload = fileio.report_bytes(report)
    else:
        seed = getattr(args, "seed", None)
        lines = [f"nogo-lab {args.command}" + ("" if seed is None else f" (seed={seed})")]
        for c in checks:
            bound = "" if c.bound is None else f" bound={c.bound:.3e}"
            lines.append(f"  [{c.verdict:>9}] {c.name}  residual={c.residual:.3e}{bound}")
        for key, val in (extra or {}).items():
            lines.append(f"  {key}: {val}")
        lines.append(f"exit {exit_code}")
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        sys.stdout.buffer.write(payload)
    return exit_code


def cmd_verify_commutation(args: argparse.Namespace) -> int:
    """Both forced-commutation routes on random pairs."""
    from . import nogo

    checks, tallies = nogo.commutation_batch(args.seed, args.dim, args.trials, args.tol)
    return _emit(args, checks, extra={"verdictCounts": tallies})


def cmd_verify_conditioning(args: argparse.Namespace) -> int:
    """Uniqueness of the conditioned state on random (state, projector) pairs."""
    from . import nogo

    return _emit(args, [nogo.conditioning_batch(args.seed, args.dim, args.trials, args.tol)])


def cmd_check_model(args: argparse.Namespace) -> int:
    """Every axiom checker on a model file; exit 1 on any flagged rule."""
    from . import hvmodel

    model = fileio.load_model(fileio.resolve_input_path(args.path))
    return _emit(args, hvmodel.check_model(model, args.tol, args.cluster_gap))


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
        return fileio.load_state(name)
    raise ConfigError(
        f"unknown state {name!r}: use singlet, maximally-mixed, ghz, or a file path"
    )


def _apply_overrides(args: argparse.Namespace, scenario: Scenario) -> Scenario:
    from .feasibility import chsh_scenario, chsh_shape, make_scenario

    if args.angles is not None:
        if chsh_shape(scenario) is None:
            raise ConfigError("--angles only applies to 2x2 dichotomic scenarios")
        state = scenario.state
        scenario = chsh_scenario(state=state, angles=args.angles, name=scenario.name)
    if args.state is not None:
        state = _named_state(args.state, scenario.dim)
        scenario = make_scenario(
            scenario.dim, scenario.items, list(scenario.contexts), state=state, name=scenario.name
        )
    return scenario


def cmd_feasibility(args: argparse.Namespace) -> int:
    """Classical-model existence for a scenario; exit 0 feasible, 1 not."""
    from .feasibility import (
        RATIONALIZATION_BOUND,
        chsh_shape,
        chsh_value,
        classical_chsh_bound,
        hv_feasibility,
    )

    path = fileio.resolve_input_path(args.path)
    scenario = _apply_overrides(args, fileio.load_scenario(path))
    if scenario.state is None:
        raise ConfigError("scenario has no state; provide one with --state")

    extra: dict = {"scenario": scenario.name}
    shape = chsh_shape(scenario)
    if shape is not None:
        (a1, a2), (b1, b2) = shape
        settings = (scenario.items[label].mat for label in (a1, a2, b1, b2))
        extra["chshValue"] = chsh_value(scenario.state, *settings)
        extra["classicalBound"] = str(classical_chsh_bound(scenario))

    result = hv_feasibility(scenario)
    check = Check(
        f"classical model existence for {scenario.name}",
        float(result.margin),
        PASS if result.feasible else result.status,
        None if result.status == "no-admissible-assignments" else float(RATIONALIZATION_BOUND),
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
    return _emit(args, [check], extra=extra)


# ---------------------------------------------------------------------------
# Argument parsing

# Every flag any command takes; ``--out`` and ``--format`` go on all of them.
_FLAGS = {
    "path": {},
    "--dim": {"type": int, "default": 3},
    "--trials": {"type": int, "default": 100},
    "--seed": {"type": int, "default": None, "help": "defaults to $NOGO_LAB_SEED or 0"},
    "--tol": {"type": float, "default": TOL},
    "--cluster-gap": {"type": float, "default": CLUSTER_GAP},
    "--state": {"default": None, "help": "singlet | maximally-mixed | ghz | file"},
    "--angles": {"default": None, "help": "a,a',b,b' in degrees (2x2 scenarios)"},
    "--out": {"default": None},
    "--format": {"choices": ("human", "structured"), "default": "human"},
}

_BATCH = ("--dim", "--trials", "--seed", "--tol")

# command -> (handler, help, the flags it reads)
_COMMANDS = {
    "verify-commutation": (
        cmd_verify_commutation,
        "forced-commutation verifiers on random projector pairs",
        _BATCH,
    ),
    "verify-conditioning": (
        cmd_verify_conditioning,
        "conditioned-state uniqueness on random (state, projector) pairs",
        _BATCH,
    ),
    "check-model": (
        cmd_check_model,
        "run all axiom checkers on a model file",
        ("path", "--tol", "--cluster-gap"),
    ),
    "feasibility": (
        cmd_feasibility,
        "classical-model existence for a scenario",
        ("path", "--state", "--angles"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nogo-lab",
        description="Machine checks for classical models of quantum measurement scenarios",
    )
    parser.add_argument("--version", action="version", version=f"nogo-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--out", "--format"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--angles expects four comma-separated degrees: a,a',b,b'")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"--angles: {exc}") from exc


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


def _settle(args: argparse.Namespace) -> None:
    """Resolve ``--seed`` and ``--angles`` and range-check the flags the
    command has; argparse has already checked their types and choices."""
    flags = vars(args)
    if "seed" in flags:
        args.seed = _resolve_seed(args.seed)
        if not 0 <= args.seed <= MAX_SEED:
            raise ConfigError("--seed must be a 64-bit unsigned integer")
    if "dim" in flags and not MIN_DIM <= args.dim <= MAX_DIM:
        raise ConfigError(f"--dim must be in [{MIN_DIM}, {MAX_DIM}], got {args.dim}")
    if "trials" in flags and args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    for key in ("tol", "cluster_gap"):
        if key in flags and not 0 < flags[key] < math.inf:
            raise ConfigError(f"--{key.replace('_', '-')} must be positive and finite")
    if flags.get("angles") is not None:
        args.angles = _parse_angles(args.angles)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _settle(args)
        return _COMMANDS[args.command][0](args)
    except NumericalAmbiguity as exc:
        print(f"nogo-lab: undecidable at this precision: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NogoLabError as exc:
        print(f"nogo-lab: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        print("nogo-lab: internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
