"""Known answers in closed form, never taken from the package under test.

Exit codes follow the CLI contract: 0 feasible / all checks pass, 1 infeasible
or violated, 2 input or configuration error.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

FEASIBLE, INFEASIBLE, ERROR = 0, 1, 2
# The verdict a feasibility report gives its check for each exit code.
VERDICT = {FEASIBLE: "pass", INFEASIBLE: "infeasible"}

# Every generated CHSH-type case keeps its correlation combinations at least
# this far from the classical bound 2, far outside the package's 1e-6
# ambiguity margin, so no case is undecidable at its rounding precision.
MARGIN = 0.05


def singlet_correlation(t1: float, t2: float) -> float:
    """E(t1, t2) = sin(t1 + t2) on the singlet under the package's calibration."""
    return math.sin(math.radians(t1 + t2))


def chsh_combinations(e11: float, e12: float, e21: float, e22: float) -> list[float]:
    """The four correlation combinations, each with one term negated."""
    total = e11 + e12 + e21 + e22
    return [total - 2 * e for e in (e11, e12, e21, e22)]


def angles_distance(angles, visibility: float = 1.0) -> float:
    """Signed distance of the worst combination below 2 (negative: violated)."""
    a1, a2, b1, b2 = angles
    e = [visibility * singlet_correlation(a, b) for a in (a1, a2) for b in (b1, b2)]
    return 2 - max(abs(s) for s in chsh_combinations(*e))


def scaling_singlet_violation(side1, side2) -> float:
    """Largest CHSH excess over every 2x2 sub-block of an n x m singlet scenario.

    One violated sub-block already rules out a local model for the whole
    scenario, because its marginal would be a local model of the block.
    """
    return max(
        -angles_distance((a1, a2, b1, b2))
        for a1, a2 in itertools.combinations(side1, 2)
        for b1, b2 in itertools.combinations(side2, 2)
    )


def scaling_verdict(side1, side2, visibility: float) -> int:
    """Singlet: infeasible by a violated sub-block.  Werner state at
    visibility <= 1/2: feasible by Werner's local model for all projective
    measurements (Phys. Rev. A 40, 4277, 1989)."""
    if visibility <= 0.5:
        return FEASIBLE
    if visibility == 1.0 and scaling_singlet_violation(side1, side2) > MARGIN:
        return INFEASIBLE
    raise ValueError("no closed-form verdict for this scaling case")


# Bundled fixtures: CHSH at the textbook angles reaches S = 2*sqrt(2); the
# magic square admits no value assignment at all (Mermin-Peres); GHZ is
# Mermin's parity contradiction; the dimension-3 triad and the commuting model
# are positive controls that pass in the package's acceptance suite.
FIXTURES = {
    "chsh": (INFEASIBLE, "infeasible"),
    "magic-square": (INFEASIBLE, "no-admissible-assignments"),
    "ghz": (INFEASIBLE, "infeasible"),
    "triad-dim3": (FEASIBLE, "pass"),
}


def report_problem(path: str, code: int, verdict: str | None) -> str | None:
    """Check a structured report against the expected verdict.

    Returns a description of the first problem, or None when the report is
    consistent: its exit code matches, every check carries the expected
    verdict, feasible certificates are exact distributions, and infeasible
    verdicts name an aggregate whose requirement exceeds what any
    assignment attains.
    """
    try:
        with open(path, "rb") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    if report.get("summary", {}).get("exitCode") != code:
        return "summary.exitCode differs from the process exit code"
    allowed = {verdict} if verdict else {"pass", "expected"}
    bad = [c.get("name") for c in report.get("checks", []) if c.get("verdict") not in allowed]
    if bad or not report.get("checks"):
        return f"unexpected check verdicts: {bad}"
    if "certificate" in report:
        weights = [Fraction(w["weight"]) for w in report["certificate"]["weights"]]
        if any(w <= 0 for w in weights) or sum(weights) != 1:
            return "certificate weights are not a probability distribution"
    if verdict == "infeasible":
        vc = report.get("violatedConstraint")
        if vc is None or Fraction(vc["required"]) <= Fraction(vc["maxAttainable"]):
            return "infeasibility certificate does not separate"
    return None
