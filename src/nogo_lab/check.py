"""One record for every verdict the library reports.

Each check ends the same way: a residual compared against a bound, then a
verdict.  :meth:`Check.judged` is the one place where a number becomes a
verdict (``residual <= bound`` passes, so a NaN residual fails); the bound
is ``tol``, ``cluster_gap`` or derived from the tolerance table below, the
one home of every entry and of :func:`floored`.  A composite
(:meth:`Check.composite`: the steps of a chain, the trials of a batch;
:func:`fold`: a rule's instances) passes iff every part passes and carries
the residual and bound of its worst part, so no check shows
``residual <= bound`` with a failing verdict.  The same record serves
chains and batches (:mod:`nogo_lab.nogo`), phase-space rules
(:mod:`nogo_lab.hvmodel`) and the feasibility verdict; :meth:`Check.as_dict`
is the entry format of the structured report.  It and the other layers'
records are ``typing.NamedTuple`` classes: immutable, copied with
``._replace``, and defined without dataclass-generated methods.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple, Optional

__all__ = ["PASS", "FAIL", "HYPOTHESIS_VIOLATED", "EXPECTED", "Check", "fold"]

# Tolerance table: one reason per bound.
TOL = 1e-9  # default --tol: identities among validated operators, in operator norm
CLUSTER_GAP = 1e-8  # default --cluster-gap: eigenvalues closer than this are one level
ROUNDING = 1e-12  # double-precision rounding of a short product of unit-norm matrices
BASIS_TOL = 1e-10  # a projector or eigenbasis computed by one QR or eigh factorization
BUILT_TOL = 1e-8  # matrices built in floating point: sampled pairs, products of scenario operators
COARSE_TOL = 1e-7  # matrices read from files, and states conditioned by dividing by tr[DB]
SEPARATION_TOL = 1e-6  # shortfall allowed when a separating projector must realize a full norm
NULL_EVENT = 1e-9  # tr[DB] or mu(b) at or below this: a null event, and conditioning is refused
PIVOT_TOL = 1e-9  # float simplex proposal: entries and reduced costs at or below this are 0


def floored(tol: float, floor: float) -> float:
    """``tol``, but never finer than ``floor``: the bound for a check whose
    data are only known to ``floor``, however small ``--tol`` is set."""
    return max(tol, floor)


PASS = "pass"
FAIL = "fail"
HYPOTHESIS_VIOLATED = "hypothesis-violated"
EXPECTED = "expected"


class Check(NamedTuple):
    """Outcome of one check: residual, verdict, the bound they were judged
    against (``None`` only for the exact no-admissible-assignments verdict
    of feasibility, which compares no residual) and the parts behind it.

    ``witness`` carries a state realizing a trace asymmetry when the verdict
    is ``hypothesis-violated``.
    """

    name: str
    residual: float
    verdict: str
    bound: Optional[float] = None
    rule: str = ""
    detail: str = ""
    parts: tuple["Check", ...] = ()
    witness: Any = None

    @classmethod
    def judged(cls, name: str, residual: float, bound: float, pass_as=PASS, **fields) -> "Check":
        """``pass_as`` when ``residual <= bound``, ``fail`` otherwise."""
        return cls(name, residual, pass_as if residual <= bound else FAIL, bound, **fields)

    @classmethod
    def composite(cls, name: str, parts, fail_as=FAIL, **fields) -> "Check":
        """``pass`` when every part is ok, ``fail_as`` otherwise, with the
        residual and bound of the worst part: the failing part furthest past
        its bound, else the passing part nearest to it (0 against 0 for no
        parts)."""
        parts = tuple(parts)
        worst = max(parts, key=_severity, default=cls("", 0.0, PASS, 0.0))
        verdict = PASS if all(p.ok for p in parts) else fail_as
        return cls(name, worst.residual, verdict, worst.bound, parts=parts, **fields)

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, EXPECTED)

    def as_dict(self) -> dict:
        """Entry in the structured report's ``checks`` list.

        ``bound`` appears on every thresholded check; ``violations`` (the
        number of failing parts) and ``firstViolation`` only when some part
        fails.
        """
        entry = {
            "name": self.name,
            "rule": self.rule,
            "residual": self.residual,
            "verdict": self.verdict,
        }
        if self.bound is not None:
            entry["bound"] = self.bound
        failing = [p for p in self.parts if not p.ok]
        if failing:
            first = failing[0]
            entry["violations"] = len(failing)
            entry["firstViolation"] = (
                f"{first.name}: {first.detail}" if first.detail else first.name
            )
        return entry


def _severity(c: Check) -> tuple[bool, float]:
    """Sort key: failing first, then ``residual / bound`` (infinite for a
    NaN residual or a nonzero residual against a zero bound)."""
    ratio = 0.0 if c.residual == 0 else c.residual / c.bound if c.bound else math.inf
    return not c.ok, ratio if ratio == ratio else math.inf


def fold(rule: str, instances: list[Check]) -> Check:
    """One ``"<rule> over N instances"`` check: ``pass`` only when every
    instance passes, the residual and bound of the worst instance, and the
    instances' sites as parts."""
    folded = Check.composite(f"{rule} over {len(instances)} instances", instances, rule=rule)
    return folded._replace(parts=tuple(p for c in instances for p in c.parts))
