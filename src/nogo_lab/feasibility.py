"""Existence of deterministic value assignments for measurement scenarios.

A scenario is a labeled set of projectors and/or dichotomic (+-1) observables
with declared commuting contexts, optional per-context product constraints
(product of the context's operators equals +-identity), and an optional
state.  Deciding whether a classical model reproduces the quantum statistics
then splits into two exact steps:

1. enumerate the value assignments that respect the spectrum and the
   functional rules inside every context (a coloring search);
2. decide by exact rational linear programming whether some probability
   distribution over those assignments matches every quantum marginal and
   every in-context pairwise joint.

Dichotomic observables ride the same constraint pipeline as projectors via
their +1 spectral projector (X = P+ - P-), which is what lets one solver
serve CHSH, coloring scenarios, parity squares, and state-forced parity
games alike, with one boundary rule for every verdict: the Farkas margin
against ``RATIONALIZATION_BOUND`` (:func:`hv_feasibility`).  The CHSH
quantity and its exact classical bound live here too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import simplex
from .errors import (
    CrossTalk,
    NotDichotomic,
    NumericalAmbiguity,
    ScenarioError,
    SearchSpaceTooLarge,
    WrongScenarioShape,
)
from .opcore import (
    BUILT_TOL,
    CLUSTER_GAP,
    COARSE_TOL,
    TOL,
    as_operator,
    commutator_norm,
    identity,
    opnorm,
    require_same_dim,
    trace_inner,
)
from .quantum import Density, Observable, Projector, spectral_projector

__all__ = [
    "ScenarioItem",
    "Context",
    "Scenario",
    "FeasibilityResult",
    "enumerate_assignments",
    "hv_feasibility",
    "chsh_value",
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

    ``plus`` is the projector whose indicator an assignment value tracks:
    the projector itself, or the +1 eigenprojector of a dichotomic item.
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


def make_item(
    label: str, kind: str, mat, cluster_gap: float = CLUSTER_GAP, tol: float = TOL
) -> ScenarioItem:
    """Validate one scenario operator and precompute its +1 projector."""
    mat = as_operator(mat)
    if kind == PROJECTOR:
        p = Projector.from_matrix(mat, tol=tol)
        return ScenarioItem(label=label, kind=kind, mat=p.mat, plus=p.mat)
    if kind == DICHOTOMIC:
        obs = Observable.from_matrix(mat, tol=tol)
        eigs = obs.eigenvalues(cluster_gap)
        if any(min(abs(e - 1.0), abs(e + 1.0)) > cluster_gap for e in eigs):
            raise NotDichotomic(
                f"item {label!r} has eigenvalues {eigs}, expected a subset of -1, +1"
            )
        if any(abs(e - 1.0) <= cluster_gap for e in eigs):
            plus = spectral_projector(obs, [1.0], cluster_gap).mat
        else:
            plus = np.zeros_like(mat)
        return ScenarioItem(label=label, kind=kind, mat=mat, plus=plus)
    raise ScenarioError(f"unknown item kind {kind!r} for {label!r}")


def make_scenario(
    dim: int,
    items: dict[str, ScenarioItem],
    contexts: list[Context],
    state: Optional[Density] = None,
    name: str = "scenario",
) -> Scenario:
    """Assemble and validate a scenario.

    Checks every context is pairwise commuting, verifies declared product
    constraints against the matrices, and tags projector contexts that
    resolve the identity.
    """
    for item in items.values():
        if item.mat.shape[0] != dim:
            raise ScenarioError(f"item {item.label!r} is not {dim}-dimensional")
    if state is not None and state.dim != dim:
        raise ScenarioError("state dimension does not match scenario")

    checked = []
    for ctx in contexts:
        missing = [l for l in ctx.labels if l not in items]
        if missing:
            raise ScenarioError(f"context references unknown labels {missing}")
        for x, y in itertools.combinations(ctx.labels, 2):
            c = commutator_norm(items[x].mat, items[y].mat)
            if c > BUILT_TOL:
                raise ScenarioError(
                    f"context {ctx.labels} not commuting: [{x},{y}] norm {c:.3e}"
                )
        if ctx.product_sign is not None:
            if ctx.product_sign not in (-1, 1):
                raise ScenarioError(f"product sign must be +-1, got {ctx.product_sign}")
            prod = identity(dim)
            for l in ctx.labels:
                prod = prod @ items[l].mat
            r = opnorm(prod - ctx.product_sign * identity(dim))
            if r > BUILT_TOL:
                raise ScenarioError(
                    f"declared product of {ctx.labels} != {ctx.product_sign:+d}I "
                    f"(residual {r:.3e})"
                )
        resolves = False
        if all(items[l].kind == PROJECTOR for l in ctx.labels) and ctx.labels:
            total = np.sum([items[l].mat for l in ctx.labels], axis=0)
            resolves = opnorm(total - identity(dim)) <= BUILT_TOL
        checked.append(
            Context(
                labels=tuple(ctx.labels),
                product_sign=ctx.product_sign,
                resolves_identity=resolves,
            )
        )
    return Scenario(dim=dim, items=dict(items), contexts=tuple(checked), state=state, name=name)


# ---------------------------------------------------------------------------
# Assignment enumeration (coloring search)


def enumerate_assignments(s: Scenario) -> list[tuple[int, ...]]:
    """All value assignments satisfying the context rules, in lexicographic
    order over the sorted labels (value order: 0 before 1, -1 before +1).

    Each assignment respects the spectrum of every item by construction;
    identity-resolving contexts get exactly one member assigned 1 and
    declared product constraints hold on the assigned values.
    """
    labels = s.labels
    if 2 ** len(labels) > MAX_ASSIGNMENT_SPACE:
        raise SearchSpaceTooLarge(
            f"2^{len(labels)} assignments exceed the {MAX_ASSIGNMENT_SPACE} guard"
        )
    domains = [s.items[l].values() for l in labels]
    position = {l: i for i, l in enumerate(labels)}
    # Contexts become checkable once their last (sorted-order) label is set.
    ready_at: dict[int, list[Context]] = {}
    for ctx in s.contexts:
        if not ctx.labels:
            continue
        last = max(position[l] for l in ctx.labels)
        ready_at.setdefault(last, []).append(ctx)

    out: list[tuple[int, ...]] = []
    values: list[int] = []

    def ok_so_far(depth: int) -> bool:
        for ctx in ready_at.get(depth, []):
            vals = [values[position[l]] for l in ctx.labels]
            if ctx.resolves_identity and sum(vals) != 1:
                return False
            if ctx.product_sign is not None and math.prod(vals) != ctx.product_sign:
                return False
        return True

    def recurse(depth: int) -> None:
        if depth == len(labels):
            out.append(tuple(values))
            return
        for v in domains[depth]:
            values.append(v)
            if ok_so_far(depth):
                recurse(depth + 1)
            values.pop()

    recurse(0)
    return out


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


def _rationalize(p: float) -> Fraction:
    p = min(1.0, max(0.0, p))
    return Fraction(round(p * DEFAULT_DENOMINATOR), DEFAULT_DENOMINATOR)


def _quantum_constraints(s: Scenario) -> list[tuple[str, tuple[str, ...], float]]:
    """(name, involved labels, probability) for marginals and in-context
    joints: the probability tr[D P_x (P_y)] that every involved item takes
    the value 1."""
    events = {(l,): f"marginal[{l}]" for l in s.labels}
    for ctx in s.contexts:
        for pair in itertools.combinations(sorted(ctx.labels), 2):
            events.setdefault(pair, "joint[{},{}]".format(*pair))
    out = []
    for involved, name in events.items():
        prod = s.state.mat
        for l in involved:
            prod = prod @ s.items[l].plus
        p = complex(np.trace(prod))
        if abs(p.imag) > BUILT_TOL:
            raise ScenarioError(f"{name} is not real: {p}")
        out.append((name, involved, p.real))
    return out


def hv_feasibility(s: Scenario) -> FeasibilityResult:
    """Decide existence of a distribution over admissible assignments that
    reproduces the state's marginals and in-context joints.

    Quantum probabilities are rounded to rationals with denominator
    ``DEFAULT_DENOMINATOR``, within ``RATIONALIZATION_BOUND`` of the quantum
    values, before the exact solve.  "Feasible" means an exact classical
    model exists for statistics within that bound.  An infeasible verdict
    stands when its Farkas margin exceeds the bound; otherwise rounding
    could have made the instance infeasible, and :class:`NumericalAmbiguity`
    is raised.  The simplex raises it too, when no float basis passes its
    exact check.
    """
    if s.state is None:
        raise ScenarioError("feasibility needs a scenario state")
    labels = s.labels
    assignments = enumerate_assignments(s)
    if not assignments:
        return FeasibilityResult(status="no-admissible-assignments", labels=labels)

    constraints = _quantum_constraints(s)
    position = {l: i for i, l in enumerate(labels)}
    plus = np.array(assignments) == 1  # [assignment, label]: the item's +1 event

    names = ["normalization"] + [name for name, _, _ in constraints]
    rhs = [Fraction(1)] + [_rationalize(p) for _, _, p in constraints]
    # Python ints, the only row entries the simplex takes.
    rows = [[1] * len(assignments)] + [
        plus[:, [position[l] for l in involved]].all(axis=1).astype(int).tolist()
        for _, involved, _ in constraints
    ]

    result = simplex.solve_equality_feasibility(rows, rhs)
    if result.feasible:
        cert = tuple(
            (assignments[j], w) for j, w in enumerate(result.x) if w != 0
        )
        return FeasibilityResult(status="feasible", labels=labels, certificate=cert)

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
        f"({coeff})*{name}" for name, coeff in zip(names, result.y) if coeff != 0
    )
    return FeasibilityResult(
        status="infeasible",
        labels=labels,
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
    with E(X, Y) = tr[D XY].

    The side-1 settings must commute with the side-2 settings (locality as
    expressed inside the algebra); each setting must have spectrum in
    {-1, +1}, at the tolerance of matrices read from files.
    """
    a1, a2, b1, b2 = map(as_operator, (a1, a2, b1, b2))
    require_same_dim(state.mat, a1, a2, b1, b2)
    for label, m in (("A", a1), ("A'", a2), ("B", b1), ("B'", b2)):
        make_item(label, DICHOTOMIC, m, cluster_gap=COARSE_TOL, tol=COARSE_TOL)
    for la, x in (("A", a1), ("A'", a2)):
        for lb, y in (("B", b1), ("B'", b2)):
            c = commutator_norm(x, y)
            if c > BUILT_TOL:
                raise CrossTalk(f"[{la}, {lb}] norm {c:.3e}; sides are not local")
    return float(_chsh_combinations(_correlations(state.mat, (a1, a2), (b1, b2)))[3])


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


def bch_inequalities_hold(s: Scenario) -> bool:
    """True iff all eight |+-E+-E+-E+-E| <= 2 constraints hold."""
    shape = chsh_shape(s)
    if shape is None:
        raise WrongScenarioShape("not a 2x2 dichotomic scenario")
    e = _correlations(s.state.mat, *([s.items[l].mat for l in side] for side in shape))
    return all(abs(v) <= 2.0 for v in _chsh_combinations(e))


def classical_chsh_bound(s: Scenario) -> Fraction:
    """max |S| over the 16 deterministic strategies, in exact arithmetic.

    S = E(A,B) + E(A,B') + E(A',B) - E(A',B') on the correlation table
    E(X, Y) = v(X) v(Y) of each +-1 value assignment v.  The answer for any
    genuine 2x2 dichotomic scenario is exactly 2.
    """
    if chsh_shape(s) is None:
        raise WrongScenarioShape("not a 2x2 dichotomic scenario")
    return Fraction(max(
        abs(_chsh_combinations([[a * b for b in side2] for a in side1])[3])
        for side1 in itertools.product((-1, 1), repeat=2)
        for side2 in itertools.product((-1, 1), repeat=2)
    ))


def chsh_scenario(
    state: Optional[Density] = None,
    angles: tuple[float, float, float, float] = (0.0, 90.0, 45.0, 135.0),
    name: str = "chsh",
) -> Scenario:
    """Standard 2x2 scenario: settings A1, A2 on side 1 and B1, B2 on side 2
    built from the angle quadruple (a, a', b, b'), singlet state by default.
    """
    state = state if state is not None else singlet_state()
    a, a2, b, b2 = angles
    mats = (setting_side1(a), setting_side1(a2), setting_side2(b), setting_side2(b2))
    items = {l: make_item(l, DICHOTOMIC, m) for l, m in zip(("A1", "A2", "B1", "B2"), mats)}
    contexts = [Context(labels=(x, y)) for x in ("A1", "A2") for y in ("B1", "B2")]
    return make_scenario(4, items, contexts, state=state, name=name)
