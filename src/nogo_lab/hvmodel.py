"""Finite classical phase spaces with deterministic value assignments.

A model is a finite probability space (points, weights), a value map giving
each registered observable a definite value at each point, and a quantum
state to compare against.  The checkers verify, rule by rule, whether the
model reproduces quantum statistics:

* measure rule     - every point's weight is nonnegative
* spectrum rule    - every assigned value is an eigenvalue of its observable
* sum rule         - values of a registered sum A+B add pointwise (commuting A, B)
* product rule     - values of a registered product AB multiply pointwise
* marginal rule    - mu{f(.,A) in S} matches tr[D P_A(S)]
* joint rule       - mu of intersections matches tr[D P_A(S) P_B(T)]
* order rule       - for projectors A <= B the events satisfy a AND b = a
* conditional rule - mu(a AND b)/mu(b) matches tr[DBAB]/tr[DB]

Each checker returns the composite :class:`~nogo_lab.check.Check` of the
sites it compared, each judged against ``tol`` (``cluster_gap`` for the
spectrum, 0 for the exact order-events inclusion); ``check_model`` runs
every checker over every instance it applies to and folds each rule into
one check.  ``cluster_gap`` is also the resolution of a set S: the levels of
an observable, its events and its spectral projectors are all grouped at the
gap the check is given, never at one fixed when the model was loaded.

The checkers read a model through one private table that computes each fact
once, on first use: value rows, events, spectral projectors, projector forms
and commutator norms.  A checker called alone builds its own; ``check_model``
builds one and hands it to every checker, so no fact is decided twice.

``build_commuting_model`` constructs the joint-eigenbasis model that any
pairwise-commuting family admits; it passes every checker by construction
and is the positive complement to the no-go checks in :mod:`nogo_lab.nogo`.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from . import opcore, rng as rng_mod
from .check import BASIS_TOL, CLUSTER_GAP, COARSE_TOL, NULL_EVENT, TOL, Check, floored, fold
from .errors import (
    ConditioningOnNull,
    NotCommuting,
    NotProjector,
    OrderViolation,
    UnregisteredObservable,
)
from .opcore import commutator_norm, dag, opnorm, trace_inner
from .quantum import Density, Observable, Projector, conditional_probability, leq, spectral_projector

__all__ = [
    "PhaseSpace",
    "HVModel",
    "preimage",
    "event_weight",
    "check_measure_rule",
    "check_spectrum_rule",
    "check_sum_rule",
    "check_product_rule",
    "check_marginal_rule",
    "check_joint_rule",
    "check_order_rule",
    "check_conditional_rule",
    "check_model",
    "build_commuting_model",
]

BASIS_SEED = 0x6A0E  # Philox key of build_commuting_model's combinations


class PhaseSpace(NamedTuple):
    """Finite sample space: ordered point labels with probability weights."""

    points: tuple[str, ...]
    weights: np.ndarray


class HVModel(NamedTuple):
    """Phase space + per-point observable values + the quantum state.

    ``values[label]`` is an array of f(point, observable) aligned with
    ``space.points``.  Treated as immutable after construction.
    """

    space: PhaseSpace
    registered: Mapping[str, Observable]
    values: Mapping[str, np.ndarray]
    state: Density

    def observable(self, label: str) -> Observable:
        try:
            return self.registered[label]
        except KeyError:
            raise UnregisteredObservable(f"no observable registered as {label!r}") from None

    def value_row(self, label: str) -> np.ndarray:
        self.observable(label)
        return np.asarray(self.values[label], dtype=float)


def _compare(
    rule: str,
    where: str,
    classical: float,
    quantum: float,
    tol: float,
    sides: tuple[str, str] = ("phase-space mass", "trace"),
) -> Check:
    """Rule instance matching a phase-space probability to its quantum value."""
    gap = abs(classical - quantum)
    site = Check.judged(where, gap, tol, detail=f"{sides[0]} {classical} vs {sides[1]} {quantum}")
    return Check.composite(rule, [site], rule=rule)


def _labels(values, cluster_gap: float) -> list[float]:
    """``values`` sorted and rounded to the decimals of ``cluster_gap`` for
    report text, so a degenerate level prints as ``1.0``, not as the float
    mean of its eigenvalues, and never as ``-0.0``."""
    decimals = max(0, math.ceil(-math.log10(cluster_gap)))
    return [round(float(v), decimals) + 0.0 for v in sorted(values)]


class _Table:
    """One model's facts, each computed on first use.  ``tol`` decides the
    preconditions: a projector form at ``floored(tol, COARSE_TOL)``, the
    order of two projectors at ``tol``."""

    def __init__(self, m: HVModel, tol: float):
        self.m, self.tol, self._known = m, tol, {}

    def _once(self, key: tuple, compute):
        if key not in self._known:
            try:
                self._known[key] = compute()
            except NotProjector as e:  # a failed projector form is known too
                self._known[key] = e
        if isinstance(self._known[key], NotProjector):  # raised afresh, so no frames pile up
            raise self._known[key].with_traceback(None)
        return self._known[key]

    def row(self, label: str) -> np.ndarray:
        return self._once(("row", label), lambda: self.m.value_row(label))

    def event(self, label: str, values: tuple, gap: float) -> set[int]:
        """Indices of the points where ``label`` takes one of ``values``."""
        row = self.row(label)
        hits = (np.flatnonzero(np.abs(row - v) <= gap).tolist() for v in values)
        return self._once(("event", label, values, gap), lambda: set().union(*hits))

    def mass(self, idx: set[int]) -> float:
        return float(sum(self.m.space.weights[i] for i in idx))

    def projector(self, label: str, values: tuple, gap: float) -> Projector:
        obs, key = self.m.observable(label), ("projector", label, values, gap)
        return self._once(key, lambda: spectral_projector(obs, values, gap))

    def form(self, label: str) -> Projector:
        """``label``'s matrix as a projector, or :class:`NotProjector`."""
        mat, tol = self.m.observable(label).mat, floored(self.tol, COARSE_TOL)
        return self._once(("form", label), lambda: Projector.from_matrix(mat, tol=tol))

    def pair_norm(self, a: str, b: str) -> float:  # in the order asked: reports keep their bits
        mat_a, mat_b = self.m.observable(a).mat, self.m.observable(b).mat
        return self._once(("pair", a, b), lambda: commutator_norm(mat_a, mat_b))

    def require_commuting(self, a: str, b: str, tol: float) -> None:
        if (c := self.pair_norm(a, b)) > tol:
            raise NotCommuting(f"{a!r} and {b!r} do not commute (norm {c:.3e})")


def _table(m, tol: float) -> tuple[_Table, HVModel]:
    """The table :func:`check_model` passes as ``m``, or a new one at ``tol``."""
    table = m if isinstance(m, _Table) else _Table(m, tol)
    return table, table.m


def preimage(
    m: HVModel, label: str, value: float, cluster_gap: float = CLUSTER_GAP
) -> frozenset[str]:
    """Event {point : f(point, label) = value within cluster_gap}."""
    return frozenset(m.space.points[i] for i in _Table(m, TOL).event(label, (value,), cluster_gap))


def event_weight(m: HVModel, event: frozenset[str]) -> float:
    index = {p: i for i, p in enumerate(m.space.points)}
    return float(sum(m.space.weights[index[p]] for p in event))


def check_measure_rule(m: HVModel, tol: float = TOL) -> Check:
    """Every point's weight must be nonnegative: its residual is max(0, -w).
    The total mass is judged by the whole-spectrum marginals."""
    sites = [Check.judged(point, max(0.0, -float(w)), tol, detail=f"weight {w}")
             for point, w in zip(m.space.points, m.space.weights)]
    return Check.composite("measure-rule", sites, rule="measure-rule")


def check_spectrum_rule(m: HVModel, cluster_gap: float = CLUSTER_GAP) -> Check:
    """Every table value must be within ``cluster_gap`` of a level of its observable."""
    table, m = _table(m, TOL)
    sites = []
    for label in m.registered:
        eigs = np.array(m.observable(label).eigenvalues(cluster_gap))
        for point, v in zip(m.space.points, table.row(label)):
            dist = float(np.abs(eigs - v).min())
            detail = f"value {v} is {dist:.3e} from the nearest eigenvalue"
            sites.append(Check.judged(f"({point}, {label})", dist, cluster_gap, detail=detail))
    return Check.composite("spectrum-rule", sites, rule="spectrum-rule")


def _pointwise_rule(m, a: str, b: str, tol: float, rule: str, what: str, mat_op, value_op) -> Check:
    """``rule`` for commuting registered A, B: every registered copy of
    mat_op(A, B), located by matrix equality, must take the values
    value_op(f(., A), f(., B)), so the value table stays the single source of
    truth.  The compound observable must itself be registered."""
    table, m = _table(m, tol)
    table.require_commuting(a, b, tol)
    target = mat_op(m.observable(a).mat, m.observable(b).mat)
    compounds = [label for label, obs in m.registered.items() if obs.dim == target.shape[0]
                 and not opcore.opnorm_exceeds(obs.mat - target, tol)]
    if not compounds:
        raise UnregisteredObservable(f"{what} is not registered in the model")
    va, vb = table.row(a), table.row(b)
    sites = []
    for compound in compounds:
        vc = table.row(compound)
        gaps = np.abs(vc - value_op(va, vb))
        sites.extend(
            Check.judged(
                point,
                float(gaps[i]),
                tol,
                detail=f"f({a})={va[i]}, f({b})={vb[i]}, f({compound})={vc[i]}",
            )
            for i, point in enumerate(m.space.points)
        )
    return Check.composite(rule, sites, rule=rule)


def check_sum_rule(m: HVModel, a: str, b: str, tol: float = TOL) -> Check:
    """f(., A+B) = f(., A) + f(., B) at every registered copy of A+B (commuting A, B)."""
    return _pointwise_rule(m, a, b, tol, "sum-rule", f"sum {a}+{b}", np.add, np.add)


def check_product_rule(m: HVModel, a: str, b: str, tol: float = TOL) -> Check:
    """f(., AB) = f(., A) * f(., B) at every registered copy of AB (commuting A, B)."""
    return _pointwise_rule(m, a, b, tol, "product-rule", f"product {a}*{b}", np.matmul, np.multiply)


def check_marginal_rule(
    m: HVModel,
    label: str,
    values,
    tol: float = TOL,
    cluster_gap: float = CLUSTER_GAP,
) -> Check:
    """mu{f(., A) in S} must equal tr[D P_A(S)]."""
    table, m = _table(m, tol)
    values = tuple(values)
    quantum_side = trace_inner(m.state.mat, table.projector(label, values, cluster_gap).mat).real
    classical_side = table.mass(table.event(label, values, cluster_gap))
    where = f"{label}, S={_labels(values, cluster_gap)}"
    return _compare("marginal-rule", where, classical_side, quantum_side, tol)


def check_joint_rule(
    m: HVModel, a: str, s_values, b: str, t_values,
    tol: float = TOL, cluster_gap: float = CLUSTER_GAP,
) -> Check:
    """mu{A in S and B in T} must equal tr[D P_A(S) P_B(T)] (commuting A, B)."""
    table, m = _table(m, tol)
    table.require_commuting(a, b, tol)
    s_values, t_values = tuple(s_values), tuple(t_values)
    pa = table.projector(a, s_values, cluster_gap)
    pb = table.projector(b, t_values, cluster_gap)
    quantum_side = np.trace(m.state.mat @ pa.mat @ pb.mat).real
    both = table.event(a, s_values, cluster_gap) & table.event(b, t_values, cluster_gap)
    s_text, t_text = _labels(s_values, cluster_gap), _labels(t_values, cluster_gap)
    where = f"({a} in {s_text}) & ({b} in {t_text})"
    return _compare("joint-rule", where, table.mass(both), quantum_side, tol)


def check_order_rule(
    m: HVModel, a: str, b: str, tol: float = TOL, cluster_gap: float = CLUSTER_GAP
) -> Check:
    """For projectors with A <= B, the value-1 events must nest: a AND b = a.

    Each point of a outside b is a failing site, in point order.
    """
    table, m = _table(m, tol)
    if not leq(table.form(a), table.form(b), table.tol):
        raise OrderViolation(f"{a!r} <= {b!r} does not hold as projectors")
    extra = table.event(a, (1.0,), cluster_gap) - table.event(b, (1.0,), cluster_gap)
    detail = f"f({a})=1 but f({b})!=1"
    sites = [Check.judged(m.space.points[i], 1.0, 0.0, detail=detail) for i in sorted(extra)]
    return Check.composite("order-events-rule", sites, rule="order-events-rule")


def check_conditional_rule(
    m: HVModel, a: str, b: str, tol: float = TOL, cluster_gap: float = CLUSTER_GAP
) -> Check:
    """mu(a AND b)/mu(b) must equal tr[DBAB]/tr[DB] for projector labels.

    Raises :class:`ConditioningOnNull` when mu(b) or tr[DB] is at most
    ``NULL_EVENT``: either ratio is then undefined, and the marginal rule
    already compares the two.  ``tol`` bounds the comparison only, so a
    loose tolerance judges every instance instead of skipping it; the
    quantum side's [0, 1] test is no finer than ``COARSE_TOL``.
    """
    table, m = _table(m, tol)
    pa, pb = table.form(a), table.form(b)
    ev_a, ev_b = table.event(a, (1.0,), cluster_gap), table.event(b, (1.0,), cluster_gap)
    mu_b = table.mass(ev_b)
    if mu_b <= NULL_EVENT:
        raise ConditioningOnNull(f"mu(b) = {mu_b:.3e} <= {NULL_EVENT:.0e} for {b!r}")
    classical = table.mass(ev_a & ev_b) / mu_b
    quantum = conditional_probability(m.state, pa, pb, floored(tol, COARSE_TOL))
    sides = ("phase-space", "conditioned trace")
    return _compare("conditional-rule", f"Pr[{a}|{b}]", classical, quantum, tol, sides)


_RULES = ("measure-rule", "spectrum-rule", "marginal-rule", "joint-rule", "sum-rule",
          "product-rule", "order-events-rule", "conditional-rule")


def check_model(m: HVModel, tol: float = TOL, cluster_gap: float = CLUSTER_GAP) -> list[Check]:
    """Every rule checker over every instance it applies to in ``m``.

    Returns one :func:`~nogo_lab.check.fold` per rule with instances, in
    measure, spectrum, marginal, joint, sum, product, order, conditional order.
    Marginals run on each eigenvalue and on the whole spectrum of every
    label; the pairwise rules run on every commuting pair of labels, the
    order and conditional rules only when both are projectors.  The
    checkers share one table, which judges projector forms at ``COARSE_TOL``
    and orders at ``min(tol, COARSE_TOL)``.  An instance whose precondition
    fails (an unregistered sum or product, an order that does not hold,
    conditioning on a null event) is skipped; other errors propagate.
    """
    table = _Table(m, min(tol, COARSE_TOL))
    found: dict[str, list[Check]] = {rule: [] for rule in _RULES}

    def add(check: Check) -> None:
        found[check.rule].append(check)

    def add_unless_skipped(checker, *args) -> None:
        try:
            add(checker(table, *args))
        except (UnregisteredObservable, OrderViolation, ConditioningOnNull):
            pass

    add(check_measure_rule(m, tol))
    add(check_spectrum_rule(table, cluster_gap))
    labels = sorted(m.registered)
    spectra = {la: sorted(set(m.registered[la].eigenvalues(cluster_gap))) for la in labels}
    for la in labels:
        for v in spectra[la]:
            add(check_marginal_rule(table, la, [v], tol, cluster_gap))
        add(check_marginal_rule(table, la, spectra[la], tol, cluster_gap))
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            if table.pair_norm(la, lb) > tol:
                continue
            for x in spectra[la]:
                for y in spectra[lb]:
                    add(check_joint_rule(table, la, [x], lb, [y], tol, cluster_gap))
            add_unless_skipped(check_sum_rule, la, lb, tol)
            add_unless_skipped(check_product_rule, la, lb, tol)
            try:
                table.form(la), table.form(lb)
            except NotProjector:
                continue
            for checker in (check_order_rule, check_conditional_rule):
                for lo, hi in ((la, lb), (lb, la)):
                    add_unless_skipped(checker, lo, hi, tol, cluster_gap)
    return [fold(rule, checks) for rule, checks in found.items() if checks]


def build_commuting_model(
    observables: Mapping[str, Observable],
    state: Density,
    tol: float = TOL,
) -> HVModel:
    """Joint-eigenbasis model for a pairwise-commuting family.

    Diagonalizes a random real combination of the family to obtain a shared
    eigenbasis (re-verifying that every member is diagonal in it), then sets
    mu(point) = <point|D|point> and f(point, A) = <point|A|point>.  The
    construction is deterministic: combination coefficients come from the
    Philox stream keyed by ``BASIS_SEED``, with a few retries in case a draw
    fails to split a degeneracy.
    """
    labels = list(observables)
    mats = [observables[k].mat for k in labels]
    dim = state.dim
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = commutator_norm(mats[i], mats[j])
            if c > tol:
                raise NotCommuting(
                    f"{labels[i]!r} and {labels[j]!r} do not commute (norm {c:.3e})"
                )

    basis = None
    if not mats:
        basis = np.eye(dim, dtype=np.complex128)
    for attempt in range(8):
        if basis is not None:
            break
        gen = rng_mod.make_generator(BASIS_SEED, attempt)
        coeffs = gen.standard_normal(len(mats))
        combo = np.sum([c * m for c, m in zip(coeffs, mats)], axis=0)
        _, vecs = np.linalg.eigh((combo + dag(combo)) / 2)
        if all(
            opnorm(np.triu(dag(vecs) @ m @ vecs, 1))
            <= floored(tol, BASIS_TOL) * max(1.0, opnorm(m))
            for m in mats
        ):
            basis = vecs
    if basis is None:
        raise NotCommuting(
            "no shared eigenbasis found; family is not simultaneously diagonalizable"
        )

    points = tuple(f"w{i}" for i in range(dim))
    weights = np.real(np.einsum("ij,jk,ki->i", dag(basis), state.mat, basis))
    weights = np.clip(weights, 0.0, None)
    values = {
        k: np.real(np.einsum("ij,jk,ki->i", dag(basis), observables[k].mat, basis))
        for k in labels
    }
    return HVModel(
        space=PhaseSpace(points=points, weights=weights),
        registered=dict(observables),
        values=values,
        state=state,
    )
