"""Existence of deterministic value assignments for measurement scenarios.

A scenario is a labeled set of projectors and/or dichotomic (+-1) observables
with declared commuting contexts, optional per-context product constraints
(product of the context's operators equals +-identity), and an optional
state.  Deciding whether a classical model reproduces the quantum statistics
then splits into two exact steps:

1. enumerate the value assignments that respect the spectrum and the
   functional rules inside every context (a coloring search: one
   breadth-first table of admissible prefixes, filtered by each context once
   its last label is set);
2. build one exact LP over those assignments (:func:`feasibility_lp`) and
   decide by exact rational linear programming whether some probability
   distribution over them matches every quantum marginal and in-context joint.

Dichotomic observables ride the same constraint pipeline as projectors via
their value-1 event, the projector (I + X)/2, which is what lets one solver
serve CHSH, coloring scenarios, parity squares, and state-forced parity
games alike, with one boundary rule for every verdict: the Farkas margin
against ``RATIONALIZATION_BOUND`` (:func:`hv_feasibility`).  The CHSH
quantity and its exact classical bound, over the same assignments, live here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import simplex
from .check import BUILT_TOL, COARSE_TOL, TOL
from .errors import (
    NotDichotomic,
    NotProjector,
    NumericalAmbiguity,
    ScenarioError,
    SearchSpaceTooLarge,
    WrongScenarioShape,
)
from .opcore import as_operator, dag, guard_opnorm, identity, opnorm_exceeds, trace_inner
from .quantum import Density, normalize_state, projector_defects, projector_rank

__all__ = [
    "ScenarioItem",
    "Context",
    "Scenario",
    "FeasibilityLP",
    "FeasibilityResult",
    "enumerate_assignments",
    "feasibility_lp",
    "hv_feasibility",
    "chsh_value",
    "chsh_sums",
    "classical_chsh_bound",
    "chsh_shape",
    "singlet_state",
    "setting_side1",
    "setting_side2",
    "chsh_scenario",
    "DEFAULT_DENOMINATOR",
    "RATIONALIZATION_BOUND",
    "MAX_ASSIGNMENT_SPACE",
]

PROJECTOR = "projector"
DICHOTOMIC = "dichotomic"

DEFAULT_DENOMINATOR = 10**9
# Max-norm distance from the quantum statistics to their rational rounding:
# half a step of the denominator plus the error of the traces computing them.
RATIONALIZATION_BOUND = Fraction(1, 2 * DEFAULT_DENOMINATOR) + Fraction(BUILT_TOL)
MAX_ASSIGNMENT_SPACE = 2**24


class ScenarioItem(NamedTuple):
    """One labeled measurement: a projector or a +-1-valued observable.

    ``plus`` is the projector whose indicator an assignment value tracks,
    the item's value-1 event: the projector itself, or (I + X)/2 for a
    dichotomic item X, each rounded onto a projector (:func:`make_item`).
    """

    label: str
    kind: str
    mat: np.ndarray
    plus: np.ndarray

    def values(self) -> tuple[int, int]:
        return (0, 1) if self.kind == PROJECTOR else (-1, 1)


class Context(NamedTuple):
    """A pairwise-commuting label set, optionally product-constrained.

    ``product_sign`` of +-1 asserts that the product of the member operators
    (in listed order) is sign * identity.  ``resolves_identity`` marks
    projector contexts summing to the identity, whose classical rule is
    "exactly one member is assigned 1".
    """

    labels: tuple[str, ...]
    product_sign: Optional[int] = None
    resolves_identity: bool = False


class Scenario(NamedTuple):
    dim: int
    items: dict[str, ScenarioItem]
    contexts: tuple[Context, ...]
    state: Optional[Density] = None
    name: str = "scenario"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.items))

    def with_state(self, state: Optional[Density]) -> Scenario:
        """This scenario under ``state``, stored as the state its statistics
        assume (:func:`~nogo_lab.quantum.normalize_state`).  Its contexts,
        validated without it, stand."""
        if state is None:
            return self._replace(state=None)
        if state.dim != self.dim:
            raise ScenarioError("state dimension does not match scenario")
        return self._replace(state=normalize_state(state))


def make_item(label: str, kind: str, mat, tol: float = TOL) -> ScenarioItem:
    """Validate one scenario operator by one projector test, of its value-1
    event E: a projector itself at ``tol``, a dichotomic X as E = (I + X)/2
    at tol/2, as E - E† = (X - X†)/2 and E² - E = (X² - I)/4.  ``plus`` is
    3H² - 2H³ for E's Hermitian part H, taking H's eigenvalues 1 + e and e to
    within 3e² of 1 and 0: a file's E, up to ``COARSE_TOL`` off, moves no
    statistic past the trace error in ``RATIONALIZATION_BOUND``; E² = E keeps E."""
    mat = as_operator(mat)
    eye = identity(len(mat))
    if kind == PROJECTOR:
        event, at, error, test = mat, tol, NotProjector, ""
    elif kind == DICHOTOMIC:
        event, at, error, test = (eye + mat) / 2, tol / 2, NotDichotomic, "(I + X)/2 "
    else:
        raise ScenarioError(f"unknown item kind {kind!r} for {label!r}")
    try:
        projector_rank(len(mat), *projector_defects(event, at), at)
    except NotProjector as exc:
        raise error(f"{kind} item {label!r}: {test}{exc}") from None
    h = event / 2 + dag(event) / 2
    return ScenarioItem(label=label, kind=kind, mat=mat, plus=h @ h @ (3 * eye - 2 * h))


def make_scenario(
    dim: int,
    items: dict[str, ScenarioItem],
    contexts: list[Context],
    state: Optional[Density] = None,
    name: str = "scenario",
) -> Scenario:
    """Assemble and validate a scenario, the one place that does.

    Checks every context is pairwise commuting, verifies declared product
    constraints against the matrices, and tags projector contexts that
    resolve the identity; each test is a guard test, with no SVD where the
    Frobenius bound decides it, and a failing one prints its exact norm.
    """
    for item in items.values():
        if item.mat.shape[0] != dim:
            raise ScenarioError(f"item {item.label!r} is not {dim}-dimensional")
    scenario = Scenario(dim=dim, items=dict(items), contexts=(), name=name).with_state(state)

    checked = []
    for ctx in contexts:
        missing = [l for l in ctx.labels if l not in items]
        if missing:
            raise ScenarioError(f"context references unknown labels {missing}")
        for x, y in itertools.combinations(ctx.labels, 2):
            a, b = items[x].mat, items[y].mat
            if (c := guard_opnorm(a @ b - b @ a, BUILT_TOL)) > BUILT_TOL:
                raise ScenarioError(f"context {ctx.labels} not commuting: [{x},{y}] norm {c:.3e}")
        if ctx.product_sign is not None:
            if ctx.product_sign not in (-1, 1):
                raise ScenarioError(f"product sign must be +-1, got {ctx.product_sign}")
            prod = identity(dim)
            for l in ctx.labels:
                prod = prod @ items[l].mat
            r = guard_opnorm(prod - ctx.product_sign * identity(dim), BUILT_TOL)
            if r > BUILT_TOL:
                raise ScenarioError(
                    f"declared product of {ctx.labels} != {ctx.product_sign:+d}I "
                    f"(residual {r:.3e})"
                )
        resolves = False
        if all(items[l].kind == PROJECTOR for l in ctx.labels) and ctx.labels:
            total = np.sum([items[l].mat for l in ctx.labels], axis=0)
            resolves = not opnorm_exceeds(total - identity(dim), BUILT_TOL)
        checked.append(ctx._replace(labels=tuple(ctx.labels), resolves_identity=resolves))
    return scenario._replace(contexts=tuple(checked))


# ---------------------------------------------------------------------------
# Assignment enumeration (coloring search)


def enumerate_assignments(s: Scenario) -> list[tuple[int, ...]]:
    """All value assignments satisfying the context rules, in lexicographic
    order over the sorted labels (value order: 0 before 1, -1 before +1).

    One breadth-first table of admissible prefixes: each label repeats every
    row once for each of its two values, so each assignment respects the
    spectrum of every item, and each context filters the table once its last
    label is set: exactly one member assigned 1 for identity-resolving
    contexts, the declared product for product-constrained ones.
    """
    labels = s.labels
    if 2 ** len(labels) > MAX_ASSIGNMENT_SPACE:
        raise SearchSpaceTooLarge(
            f"2^{len(labels)} assignments exceed the {MAX_ASSIGNMENT_SPACE} guard"
        )
    position = {l: i for i, l in enumerate(labels)}
    table = np.zeros((1, len(labels)), dtype=np.int8)
    for depth, label in enumerate(labels):
        table = np.repeat(table, 2, axis=0)
        table[:, depth] = np.tile(s.items[label].values(), len(table) // 2)
        for ctx in s.contexts:
            cols = [position[l] for l in ctx.labels]
            if not cols or max(cols) != depth:
                continue
            if ctx.resolves_identity:
                table = table[table[:, cols].sum(axis=1) == 1]
            if ctx.product_sign is not None:
                table = table[table[:, cols].prod(axis=1) == ctx.product_sign]
    return list(zip(*table.T.tolist())) if labels else [()]


# ---------------------------------------------------------------------------
# Exact feasibility


class FeasibilityResult(NamedTuple):
    """Outcome of the classical-model existence decision.

    ``certificate`` (when feasible) maps assignments - as value tuples over
    the sorted labels - to exact rational weights summing to 1 that
    reproduce every constrained marginal and joint exactly.  When
    infeasible, ``violated_constraint`` names an aggregate constraint (a
    rational combination of the imposed marginals/joints) together with the
    largest value any assignment distribution can reach and the value the
    quantum state requires, and ``margin`` is the max-norm distance that
    the Farkas dual proves from every classical statistic vector to the
    rounded quantum one (0 unless infeasible).
    """

    status: str  # "feasible" | "infeasible" | "no-admissible-assignments"
    labels: tuple[str, ...]
    certificate: Optional[tuple[tuple[tuple[int, ...], Fraction], ...]] = None
    violated_constraint: Optional[str] = None
    required: Optional[Fraction] = None
    max_attainable: Optional[Fraction] = None
    margin: Fraction = Fraction(0)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


class FeasibilityLP(NamedTuple):
    """The exact LP of :func:`hv_feasibility`: x >= 0 over the admissible
    ``assignments`` (its columns) with rows . x = b.  Row i, in Python ints
    (the only entries the simplex takes), indicates the event ``names[i]``
    that every involved item takes the value 1: none (``normalization``), a
    label (``marginal[x]``) or an in-context pair (``joint[x,y]``).  b[i] is
    its probability, clipped to [0, 1], to the nearest 1/``DEFAULT_DENOMINATOR``."""

    labels: tuple[str, ...]
    assignments: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    b: tuple[Fraction, ...]


def feasibility_lp(s: Scenario) -> FeasibilityLP:
    """The :class:`FeasibilityLP` of a scenario with a state, from one pass over
    its events: the normalization, each marginal, each in-context pair once."""
    if s.state is None:
        raise ScenarioError("feasibility needs a scenario state")
    labels = s.labels
    assignments = tuple(enumerate_assignments(s))
    # [assignment, label]: 1 where the item takes the value 1
    ones = (np.array(assignments).reshape(len(assignments), len(labels)) == 1).astype(int)
    events = {(): "normalization"} | {(l,): f"marginal[{l}]" for l in labels}
    for ctx in s.contexts:
        for pair in itertools.combinations(sorted(ctx.labels), 2):
            events.setdefault(pair, "joint[{},{}]".format(*pair))
    rows, b = [], []
    for involved, name in events.items():
        prod = s.state.mat
        for l in involved:
            prod = prod @ s.items[l].plus
        p = complex(np.trace(prod))
        if abs(p.imag) > BUILT_TOL:
            raise ScenarioError(f"{name} is not real: {p}")
        rows.append(tuple(ones[:, [labels.index(l) for l in involved]].prod(axis=1).tolist()))
        p = min(1.0, max(0.0, p.real))
        b.append(Fraction(round(p * DEFAULT_DENOMINATOR), DEFAULT_DENOMINATOR))
    return FeasibilityLP(labels, assignments, tuple(events.values()), tuple(rows), tuple(b))


def hv_feasibility(s: Scenario) -> FeasibilityResult:
    """Decide existence of a distribution over admissible assignments that
    reproduces the state's marginals and in-context joints (:func:`feasibility_lp`).

    Quantum probabilities are rounded to rationals with denominator
    ``DEFAULT_DENOMINATOR``, within ``RATIONALIZATION_BOUND`` of the quantum
    values, before the exact solve.  "Feasible" means an exact classical
    model exists for statistics within that bound.  An infeasible verdict
    stands when its Farkas margin exceeds the bound; otherwise rounding
    could have made the instance infeasible, and :class:`NumericalAmbiguity`
    is raised.  The simplex raises it too, when no float basis passes its
    exact check.
    """
    lp = feasibility_lp(s)
    if not lp.assignments:
        return FeasibilityResult(status="no-admissible-assignments", labels=lp.labels)

    result = simplex.solve_equality_feasibility(lp.rows, lp.b)
    if result.feasible:
        cert = tuple((lp.assignments[j], w) for j, w in enumerate(result.x) if w != 0)
        return FeasibilityResult(status="feasible", labels=lp.labels, certificate=cert)

    # A classical statistic vector c = A x, x >= 0, has y.c <= 0 < y.b and
    # the exact normalization c[0] = b[0], so y[1:].(b - c)[1:] >= y.b: it
    # lies at least margin = y.b / |y[1:]|_1 from b in the max norm.
    margin = result.infeasibility_gap / sum(abs(v) for v in result.y[1:])
    if margin <= RATIONALIZATION_BOUND:
        raise NumericalAmbiguity(
            f"Farkas margin {float(margin):.2e} is within the rounding bound "
            f"{float(RATIONALIZATION_BOUND):.2e} of the quantum statistics"
        )

    # Name the violated aggregate: y.(constraints) is a linear functional
    # that every assignment distribution keeps <= max_attainable = max_j y.A_j,
    # yet the quantum values require y.b, the phase-1 optimum, which is > 0.
    described = " + ".join(
        f"({coeff})*{name}" for name, coeff in zip(lp.names, result.y) if coeff != 0
    )
    return FeasibilityResult(
        status="infeasible",
        labels=lp.labels,
        violated_constraint=described,
        required=result.infeasibility_gap,
        max_attainable=result.max_ya,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# CHSH machinery

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def singlet_state() -> Density:
    """The two-qubit singlet (|01> - |10>)/sqrt(2) as a density."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return Density.pure(v)


def setting_side1(theta_deg: float) -> np.ndarray:
    """Side-1 analyzer at ``theta_deg``: cos(t) sz + sin(t) sx on qubit 1.

    Angles are measured from the z axis in the zx plane.
    """
    t = np.deg2rad(theta_deg)
    return np.kron(np.cos(t) * _SZ + np.sin(t) * _SX, _I2)


def setting_side2(theta_deg: float) -> np.ndarray:
    """Side-2 analyzer at ``theta_deg``: -(sin(t) sz + cos(t) sx) on qubit 2.

    Side 2 is calibrated against the -x axis with the opposite orientation;
    on the singlet this makes E(t1, t2) = sin(t1 + t2), so the textbook
    quadruple (0, 90; 45, 135) maximizes the correlation combination
    E(A,B) + E(A,B') + E(A',B) - E(A',B').
    """
    t = np.deg2rad(theta_deg)
    return np.kron(_I2, -(np.sin(t) * _SZ + np.cos(t) * _SX))


def chsh_value(state: Density, a1, a2, b1, b2) -> float:
    """Correlation combination S = E(A,B) + E(A,B') + E(A',B) - E(A',B')
    with E(X, Y) = tr[D XY], read off the 2x2 scenario (:func:`_two_by_two`)
    of these settings as +-1 items at the file tolerance, each cross pair a
    commuting context: locality as expressed inside the algebra."""
    return float(chsh_sums(_two_by_two(state, (a1, a2, b1, b2), COARSE_TOL))[3])


def _correlations(d: np.ndarray, side1, side2) -> list[list[float]]:
    """The 2x2 table E(X, Y) = tr[D XY], X on side 1 (rows), Y on side 2."""
    return [[trace_inner(d, x @ y).real for y in side2] for x in side1]


def _chsh_combinations(e) -> list:
    """The four sums of the 2x2 table ``e`` with one entry negated, the
    k-th negating entry k in row-major order; for a 2x2 dichotomic scenario
    each is classically at most 2 in absolute value, and the fourth is
    S = E(A,B) + E(A,B') + E(A',B) - E(A',B').

    Each is summed left to right from its first term: integer tables stay
    exact, and float sums keep the bits of that expression.
    """
    entries = [v for row in e for v in row]
    combos = []
    for k in range(4):
        terms = [-v if j == k else v for j, v in enumerate(entries)]
        total = terms[0]
        for v in terms[1:]:
            total += v
        combos.append(total)
    return combos


def chsh_shape(s: Scenario) -> Optional[tuple[tuple[str, str], tuple[str, str]]]:
    """Detect a 2x2 dichotomic scenario; return (side1 labels, side2 labels).

    Shape: four dichotomic items, four two-label contexts forming the
    complete bipartite pairing of two sides.
    """
    if len(s.items) != 4 or any(i.kind != DICHOTOMIC for i in s.items.values()):
        return None
    pair_ctxs = [c for c in s.contexts if len(c.labels) == 2]
    if len(pair_ctxs) != 4 or len(s.contexts) != 4:
        return None
    pairs = {tuple(sorted(c.labels)) for c in pair_ctxs}
    labels = s.labels
    for side1 in itertools.combinations(labels, 2):
        side2 = tuple(l for l in labels if l not in side1)
        wanted = {
            tuple(sorted((x, y))) for x in side1 for y in side2
        }
        if wanted == pairs:
            return (side1, side2)
    return None


def _sides(s: Scenario) -> tuple[tuple[str, str], tuple[str, str]]:
    """:func:`chsh_shape`, or :class:`WrongScenarioShape`."""
    if (shape := chsh_shape(s)) is None:
        raise WrongScenarioShape("not a 2x2 dichotomic scenario")
    return shape


def chsh_sums(s: Scenario) -> list[float]:
    """The four :func:`_chsh_combinations` of a 2x2 dichotomic scenario's
    correlation table, read off its own validated items and its state; the
    fourth is S, as :func:`chsh_value` computes it."""
    sides = ([s.items[l].mat for l in side] for side in _sides(s))
    return _chsh_combinations(_correlations(s.state.mat, *sides))


def bch_inequalities_hold(s: Scenario) -> bool:
    """True iff all eight |+-E+-E+-E+-E| <= 2 constraints hold."""
    return all(abs(v) <= 2.0 for v in chsh_sums(s))


def classical_chsh_bound(s: Scenario) -> Fraction:
    """max |S| over the admissible assignments (:func:`enumerate_assignments`)
    in exact arithmetic, S = E(A,B) + E(A,B') + E(A',B) - E(A',B') on the
    table E(X, Y) = v(X) v(Y) of each +-1 assignment v.  At 2x2 these are the
    16 deterministic strategies unless a context declares a product, and
    each has |S| = 2, so the answer is exactly 2."""
    side1, side2 = _sides(s)
    values = (dict(zip(s.labels, v)) for v in enumerate_assignments(s))
    return Fraction(max(
        abs(_chsh_combinations([[v[x] * v[y] for y in side2] for x in side1])[3]) for v in values
    ))


def chsh_scenario(
    state: Optional[Density] = None,
    angles: tuple[float, float, float, float] = (0.0, 90.0, 45.0, 135.0),
    name: str = "chsh",
) -> Scenario:
    """Standard 2x2 scenario: settings A1, A2 on side 1 and B1, B2 on side 2
    built from the angle quadruple (a, a', b, b'), singlet state by default.
    """
    a, a2, b, b2 = angles
    mats = (setting_side1(a), setting_side1(a2), setting_side2(b), setting_side2(b2))
    return _two_by_two(singlet_state() if state is None else state, mats, TOL, name)


def _two_by_two(state: Density, mats, tol: float, name: str = "chsh") -> Scenario:
    """The 2x2 scenario of settings (A1, A2; B1, B2): each a +-1 item at
    ``tol`` (:func:`make_item`), each cross pair a context (:func:`make_scenario`)."""
    items = {l: make_item(l, DICHOTOMIC, m, tol) for l, m in zip(("A1", "A2", "B1", "B2"), mats)}
    contexts = [Context(labels=(x, y)) for x in ("A1", "A2") for y in ("B1", "B2")]
    return make_scenario(len(items["A1"].mat), items, contexts, state=state, name=name)
