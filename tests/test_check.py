import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nogo_lab import check, feasibility, hvmodel, opcore, quantum, simplex
from nogo_lab.check import EXPECTED, FAIL, PASS, Check, fold


def _records() -> list:
    """One instance of every record class of the package."""
    obs = quantum.Observable.from_matrix(np.diag([1.0, 0.0]))
    scenario = feasibility.chsh_scenario()
    model = hvmodel.build_commuting_model({"O": obs}, quantum.Density.maximally_mixed(2))
    one = (Fraction(1),)
    return [
        Check("x", 0.0, PASS),
        quantum.Projector(opcore.identity(2), 2),
        quantum.Density.maximally_mixed(2),
        obs,
        next(iter(scenario.items.values())),
        scenario.contexts[0],
        scenario,
        feasibility.FeasibilityLP(("A",), ((1,),), ("normalization",), ((1,),), one),
        feasibility.FeasibilityResult("feasible", ("A",)),
        simplex.FeasibleSolution(one),
        simplex.InfeasibleCertificate(one, one[0], Fraction(0)),
        model.space,
        model,
    ]


RECORDS = _records()


def test_every_record_class_is_covered():
    defined = {
        obj for mod in (check, opcore, quantum, feasibility, simplex, hvmodel)
        for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and hasattr(obj, "_fields")
    }
    assert defined == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_copied_with_replace(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    copy = record._replace()
    assert type(copy) is type(record) and all(a is b for a, b in zip(copy, record))
    marker = object()
    changed = record._replace(**{first: marker})
    assert getattr(changed, first) is marker and getattr(record, first) is not marker
    assert all(a is b for a, b in zip(changed[1:], record[1:]))


def test_nan_residual_fails():
    c = Check.judged("x", math.nan, 1e-9)
    assert c.verdict == FAIL and not c.ok
    assert c.as_dict()["bound"] == 1e-9


def test_residual_at_the_bound_passes():
    assert Check.judged("x", 1e-9, 1e-9).verdict == PASS
    assert Check.judged("x", 0.0, 0.0, pass_as=EXPECTED).verdict == EXPECTED
    assert Check.judged("x", 1.0, 0.0, pass_as=EXPECTED).verdict == FAIL


def test_unbounded_check_has_no_bound_key():
    assert "bound" not in Check("exact", 0.0, "infeasible").as_dict()


def test_composite_reports_its_worst_part():
    near = Check.judged("near", 8e-10, 1e-9)
    far = Check.judged("far", 1e-6, 1e-5)
    c = Check.composite("chain", [far, near])
    assert (c.residual, c.bound, c.verdict) == (8e-10, 1e-9, PASS)
    broken = Check.judged("broken", 2.0, 0.0)
    c = Check.composite("chain", [far, near, broken])
    assert (c.residual, c.bound, c.verdict) == (2.0, 0.0, FAIL)
    assert Check.composite("empty", []).as_dict()["bound"] == 0.0


def test_fold_keeps_the_flagged_sites_of_its_instances():
    site = Check.judged("w1", 0.5, 1e-9, detail="mass 0.5 vs trace 0")
    instances = [
        Check.composite("marginal-rule", [Check.judged("w0", 0.0, 1e-9)]),
        Check.composite("marginal-rule", [site]),
    ]
    entry = fold("marginal-rule", instances).as_dict()
    assert entry["name"] == "marginal-rule over 2 instances"
    assert (entry["residual"], entry["bound"], entry["verdict"]) == (0.5, 1e-9, FAIL)
    assert entry["violations"] == 1
    assert entry["firstViolation"] == "w1: mass 0.5 vs trace 0"


residuals = st.floats(min_value=0.0, max_value=2.0) | st.just(math.nan)
bounds = st.sampled_from([0.0, 1e-9, 0.5, 1.0])


@given(st.lists(st.lists(st.tuples(residuals, bounds), min_size=1), min_size=1))
def test_no_composite_passes_against_its_own_bound_and_fails(tree):
    """Nested composites: the verdict always agrees with the residual and
    bound the check carries."""
    chains = [
        Check.composite(f"chain {i}", [Check.judged(str(j), r, b) for j, (r, b) in enumerate(steps)])
        for i, steps in enumerate(tree)
    ]
    for c in (*chains, Check.composite("batch", chains), fold("rule", chains)):
        assert c.ok == (c.residual <= c.bound)
