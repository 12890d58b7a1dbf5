"""One record for every verdict the library reports.

Each check ends the same way: a residual compared against a bound, then a
verdict.  A :class:`Check` carries that outcome whether it comes from an
operator-identity chain (:mod:`nogo_lab.nogo`), a phase-space rule
(:mod:`nogo_lab.hvmodel`), the measure axioms (:mod:`nogo_lab.quantum`) or
a CLI batch; ``parts`` holds the sub-checks it was judged from (the steps of
a chain, the flagged sites of a rule) and :meth:`Check.as_dict` is the entry
format of the structured report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["PASS", "FAIL", "HYPOTHESIS_VIOLATED", "EXPECTED", "Check", "fold"]

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_VIOLATED = "hypothesis-violated"
EXPECTED = "expected"


@dataclass(frozen=True)
class Check:
    """Outcome of one check: worst residual, verdict and the parts behind it.

    ``witness`` carries a state realizing a trace asymmetry when the verdict
    is ``hypothesis-violated``; ``model`` carries an explicit phase-space
    model when one exists (commutation surveys of commuting sets).
    """

    name: str
    residual: float
    verdict: str
    rule: str = ""
    detail: str = ""
    parts: tuple["Check", ...] = ()
    witness: Any = None
    model: Any = None

    @classmethod
    def judged(cls, name: str, residual: float, ok: bool, **fields) -> "Check":
        """A check whose verdict is ``pass`` when ``ok`` and ``fail`` otherwise."""
        return cls(name=name, residual=residual, verdict=PASS if ok else FAIL, **fields)

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, EXPECTED)

    def as_dict(self) -> dict:
        """Entry in the structured report's ``checks`` list.

        ``violations`` (the number of failing parts) and ``firstViolation``
        appear only when some part fails.
        """
        entry = {
            "name": self.name,
            "rule": self.rule,
            "residual": self.residual,
            "verdict": self.verdict,
        }
        failing = [p for p in self.parts if not p.ok]
        if failing:
            first = failing[0]
            entry["violations"] = len(failing)
            entry["firstViolation"] = (
                f"{first.name}: {first.detail}" if first.detail else first.name
            )
        return entry


def fold(rule: str, instances: list[Check]) -> Check:
    """One ``"<rule> over N instances"`` check: the worst residual, every
    part, and ``pass`` only when every instance passes."""
    return Check.judged(
        f"{rule} over {len(instances)} instances",
        max(c.residual for c in instances),
        all(c.ok for c in instances),
        rule=rule,
        parts=tuple(p for c in instances for p in c.parts),
    )
