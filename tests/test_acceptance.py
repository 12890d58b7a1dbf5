"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line on
success (run with ``pytest -s tests/test_acceptance.py`` to see them, or
``-v`` for pytest's own per-test verdicts).  Tolerances are pinned here and
nowhere else.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from nogo_lab.cli import main
from nogo_lab.feasibility import (
    bch_inequalities_hold,
    chsh_scenario,
    chsh_value,
    classical_chsh_bound,
    enumerate_assignments,
    hv_feasibility,
    setting_side1,
    setting_side2,
    singlet_state,
)
from nogo_lab.errors import NumericalAmbiguity
from nogo_lab.hvmodel import (
    build_commuting_model,
    check_conditional_rule,
    check_joint_rule,
    check_marginal_rule,
    check_order_rule,
    check_product_rule,
    check_spectrum_rule,
    check_sum_rule,
    event_weight,
    preimage,
)
from nogo_lab.nogo import (
    HYPOTHESIS_VIOLATED,
    PASS,
    check_conditional_uniqueness,
    check_forced_commutation,
    check_forced_commutation_alt,
    trace_symmetry_gap,
)
from nogo_lab.opcore import (
    commutator_norm,
    dag,
    opnorm,
    random_density_matrix,
    random_projector_matrix,
    random_unitary,
    trace_inner,
)
from nogo_lab.quantum import Density, Observable, Projector, luders_density
from nogo_lab.rng import trial_generator

from conftest import basis_projector, plus_projector
from test_feasibility import brute_force_assignments, magic_square_scenario


def _commuting_pair(gen, dim):
    u = random_unitary(gen, dim)
    pa = np.diag(gen.integers(0, 2, size=dim).astype(np.complex128))
    pb = np.diag(gen.integers(0, 2, size=dim).astype(np.complex128))
    return (
        Projector.from_matrix(u @ pa @ dag(u), tol=1e-8),
        Projector.from_matrix(u @ pb @ dag(u), tol=1e-8),
    )


def _noncommuting_pair(gen, dim, min_comm=0.05):
    while True:
        a = random_projector_matrix(gen, dim, int(gen.integers(1, dim)))
        b = random_projector_matrix(gen, dim, int(gen.integers(1, dim)))
        if commutator_norm(a, b) > min_comm:
            return (
                Projector.from_matrix(a, tol=1e-8),
                Projector.from_matrix(b, tol=1e-8),
            )


def test_criterion_1_forced_commutation_forward():
    """1000 commuting pairs per dim in {3,4,5,6}: verdict pass, final
    commutator <= 1e-8, zero fail verdicts, under 30 s."""
    t0 = time.monotonic()
    worst_final = 0.0
    for dim in (3, 4, 5, 6):
        for t in range(1000):
            gen = trial_generator(1, dim * 1_000_000 + t)
            a, b = _commuting_pair(gen, dim)
            rep = check_forced_commutation(a, b)
            assert rep.verdict == PASS
            worst_final = max(worst_final, commutator_norm(a.mat, b.mat))
    elapsed = time.monotonic() - t0
    assert worst_final <= 1e-8
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 PASS: 4000 commuting pairs, worst final commutator "
        f"{worst_final:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_obstruction_witnesses():
    """1000 noncommuting pairs: hypothesis-violated with a witness achieving
    at least 0.9x the operator gap; analytic spot value 1/(2 sqrt 2)."""
    worst_ratio = np.inf
    for t in range(1000):
        gen = trial_generator(2, t)
        dim = 3 + (t % 4)
        a, b = _noncommuting_pair(gen, dim, min_comm=0.05)
        rep = check_forced_commutation(a, b)
        assert rep.verdict == HYPOTHESIS_VIOLATED
        assert rep.witness is not None
        m = b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat
        gap = opnorm(m)
        realized = abs(trace_inner(rep.witness.mat, m).real)
        worst_ratio = min(worst_ratio, realized / gap)
        assert realized >= 0.9 * gap

    spot_gap, _ = trace_symmetry_gap(basis_projector(3, 0), plus_projector(3, 0, 1))
    assert spot_gap == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-9)
    print(
        f"\nACCEPTANCE 2 PASS: 1000 noncommuting pairs flagged, worst witness "
        f"ratio {worst_ratio:.6f}, spot gap {spot_gap:.9f}"
    )


def test_criterion_3_route_agreement():
    """Both proof routes agree on the verdict for every sampled pair."""
    disagreements = 0
    checked = 0
    for t in range(400):
        gen = trial_generator(3, t)
        dim = 3 + (t % 4)
        if t % 2 == 0:
            a, b = _commuting_pair(gen, dim)
        else:
            a, b = _noncommuting_pair(gen, dim)
        v1 = check_forced_commutation(a, b).verdict
        v2 = check_forced_commutation_alt(a, b).verdict
        checked += 1
        if v1 != v2:
            disagreements += 1
    assert disagreements == 0
    print(f"\nACCEPTANCE 3 PASS: {checked} pairs, both routes agree on every verdict")


def test_criterion_4_model_round_trip():
    """200 random commuting families (dims 3-6) pass every checker at 1e-9,
    under 20 s."""
    t0 = time.monotonic()
    worst = 0.0
    for t in range(200):
        gen = trial_generator(4, t)
        dim = 3 + (t % 4)
        u = random_unitary(gen, dim)
        pa = gen.integers(0, 2, size=dim).astype(np.complex128)
        pb = gen.integers(0, 2, size=dim).astype(np.complex128)
        a = u @ np.diag(pa) @ dag(u)
        b = u @ np.diag(pb) @ dag(u)
        fam = {
            "A": Observable.from_matrix(a, tol=1e-8),
            "B": Observable.from_matrix(b, tol=1e-8),
            "S": Observable.from_matrix(a + b, tol=1e-8),
            "P": Observable.from_matrix(a @ b, tol=1e-8),
        }
        state = Density.from_matrix(random_density_matrix(gen, dim))
        model = build_commuting_model(fam, state, tol=1e-8)

        reports = [check_spectrum_rule(model)]
        reports.append(check_sum_rule(model, "A", "B", tol=1e-9))
        reports.append(check_product_rule(model, "A", "B", tol=1e-9))
        for label in fam:
            eigs = sorted(set(fam[label].eigenvalues()))
            reports.append(check_marginal_rule(model, label, eigs, tol=1e-9))
            for v in eigs:
                reports.append(check_marginal_rule(model, label, [v], tol=1e-9))
        vals_a = sorted(set(fam["A"].eigenvalues()))
        vals_b = sorted(set(fam["B"].eigenvalues()))
        for va in vals_a:
            for vb in vals_b:
                reports.append(
                    check_joint_rule(model, "A", [va], "B", [vb], tol=1e-9)
                )
        # product projector sits below both factors: the event-order rule
        reports.append(check_order_rule(model, "P", "A", tol=1e-9))
        reports.append(check_order_rule(model, "P", "B", tol=1e-9))
        for lo, hi in (("A", "B"), ("B", "A")):
            if event_weight(model, preimage(model, hi, 1.0)) > 1e-9:
                reports.append(check_conditional_rule(model, lo, hi, tol=1e-9))
        for rep in reports:
            assert rep.ok, f"{rep.rule} violated: {rep.parts[:1]}"
            worst = max(worst, rep.residual)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 20.0
    print(
        f"\nACCEPTANCE 4 PASS: 200 commuting families pass all rules, worst "
        f"residual {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_5_conditioning_uniqueness():
    """200 random (state, projector) pairs at dims 3-5: existence residual
    <= 1e-9 and separators for every perturbation of size >= 1e-6; the CLI
    rejects dimension 2 with exit code 2."""
    worst_exist = 0.0
    for t in range(200):
        gen = trial_generator(5, t)
        dim = 3 + (t % 3)
        d = Density.from_matrix(random_density_matrix(gen, dim))
        rank = int(gen.integers(1, dim))
        b = Projector.from_matrix(random_projector_matrix(gen, dim, rank), tol=1e-8)
        rep = check_conditional_uniqueness(d, b, trials=6, gen=gen, tol=1e-9)
        assert rep.verdict == PASS
        worst_exist = max(worst_exist, rep.parts[0].residual)

        # explicit perturbations down to the 1e-6 floor stay separated
        d_b = luders_density(d, b)
        basis_vals, basis_vecs = np.linalg.eigh((b.mat + dag(b.mat)) / 2)
        cols = basis_vecs[:, basis_vals > 0.5]
        for eps in (1.001e-6, 1e-4, 1e-2):
            if rank < 2:
                break
            t_small = np.zeros((rank, rank), dtype=complex)
            t_small[0, 0], t_small[1, 1] = 1.0, -1.0
            perturb = cols @ t_small @ dag(cols)
            perturb = perturb / opnorm(perturb)
            try:
                d_prime = Density.from_matrix(d_b.mat + eps * perturb, tol=1e-7)
            except Exception:
                continue  # perturbation left the positive cone; not a valid D'
            delta = d_prime.mat - d_b.mat
            assert opnorm(delta) >= 1e-6
            vals, vecs = np.linalg.eigh((delta + dag(delta)) / 2)
            r1 = Projector.from_ray(vecs[:, int(np.argmax(np.abs(vals)))])
            gap = abs(
                trace_inner(d_prime.mat, r1.mat).real
                - trace_inner(d_b.mat, r1.mat).real
            )
            assert gap >= 0.5 * opnorm(delta)
    assert worst_exist <= 1e-9

    assert main(["verify-conditioning", "--dim", "2", "--trials", "5"]) == 2
    print(
        f"\nACCEPTANCE 5 PASS: 200 conditioning pairs, worst existence residual "
        f"{worst_exist:.2e}; dim-2 rejected with exit 2"
    )


def test_criterion_6_chsh_constants():
    """Classical bound exactly 2; singlet at (0, 90; 45, 135) reaches
    2 sqrt 2 within 1e-6; that instance is infeasible while product states
    are feasible with exact certificates."""
    s = chsh_scenario()
    assert classical_chsh_bound(s) == Fraction(2)

    s_val = chsh_value(
        singlet_state(),
        setting_side1(0.0),
        setting_side1(90.0),
        setting_side2(45.0),
        setting_side2(135.0),
    )
    assert s_val == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    assert hv_feasibility(s).status == "infeasible"

    gen = trial_generator(6, 0)
    for _ in range(5):
        rho = np.kron(random_density_matrix(gen, 2), random_density_matrix(gen, 2))
        sp = chsh_scenario(state=Density.from_matrix(rho))
        res = hv_feasibility(sp)
        assert res.status == "feasible"
        assert sum(w for _, w in res.certificate) == 1
        pos = {l: i for i, l in enumerate(res.labels)}
        for l in res.labels:
            p = np.trace(sp.state.mat @ sp.items[l].plus).real
            want = Fraction(round(min(1.0, max(0.0, p)) * 10**9), 10**9)
            got = sum(w for a, w in res.certificate if a[pos[l]] == 1)
            assert got == want
    print(
        f"\nACCEPTANCE 6 PASS: classical bound = 2 exactly, singlet S = "
        f"{s_val:.9f} = 2*sqrt(2), optimal instance infeasible, product "
        f"states feasible with exact certificates"
    )


def test_criterion_7_fine_equivalence():
    """200 CHSH instances with boundary margin > 1e-6: feasibility verdict
    matches the eight-inequality test with zero disagreements."""
    checked = 0
    disagreements = 0
    statuses = {"feasible": 0, "infeasible": 0}
    t = 0
    while checked < 200:
        gen = trial_generator(7, t)
        t += 1
        if t % 2 == 0:
            state = Density.from_matrix(random_density_matrix(gen, 4))
            angles = tuple(gen.uniform(0, 360, size=4))
        else:
            p = gen.uniform(0.4, 1.0)
            rho = p * singlet_state().mat + (1 - p) * np.eye(4) / 4
            state = Density.from_matrix(rho)
            angles = tuple(
                np.array([0.0, 90.0, 45.0, 135.0]) + gen.uniform(-25, 25, size=4)
            )
        s = chsh_scenario(state=state, angles=angles)
        try:
            res = hv_feasibility(s)
        except NumericalAmbiguity:
            continue  # inside the margin; excluded by the criterion
        checked += 1
        statuses[res.status] += 1
        if res.feasible != bch_inequalities_hold(s):
            disagreements += 1
    assert disagreements == 0
    assert statuses["feasible"] > 0 and statuses["infeasible"] > 0
    print(
        f"\nACCEPTANCE 7 PASS: 200 instances ({statuses['feasible']} feasible, "
        f"{statuses['infeasible']} infeasible), zero disagreements with the "
        f"inequality test"
    )


def test_criterion_8_magic_square():
    """No admissible assignment exists (confirmed by the 512-case brute
    force) for 20 random states, in under a second."""
    t0 = time.monotonic()
    base = magic_square_scenario()
    assert enumerate_assignments(base) == []
    assert brute_force_assignments(base) == []
    gen = trial_generator(8, 0)
    for _ in range(20):
        state = Density.from_matrix(random_density_matrix(gen, 4))
        res = hv_feasibility(magic_square_scenario(state))
        assert res.status == "no-admissible-assignments"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 8 PASS: parity square admits no assignment (brute force "
        f"agrees) for 20 states, {elapsed:.2f}s"
    )


def test_criterion_9_determinism(tmp_path):
    """Identical seeds give byte-identical structured reports."""
    pairs = []
    for name, args in (
        (
            "verify-commutation",
            ["verify-commutation", "--dim", "4", "--trials", "30", "--seed", "7"],
        ),
        (
            "feasibility",
            ["feasibility", "chsh.scenario", "--state", "singlet",
             "--angles", "0,90,45,135"],
        ),
        (
            "verify-conditioning",
            ["verify-conditioning", "--dim", "3", "--trials", "20", "--seed", "9"],
        ),
    ):
        a = tmp_path / f"{name}-a.json"
        b = tmp_path / f"{name}-b.json"
        for out in (a, b):
            code = main([*args, "--format", "structured", "--out", str(out)])
            assert code in (0, 1)
        assert a.read_bytes() == b.read_bytes(), f"{name} reports differ"
        pairs.append(name)
    print(
        f"\nACCEPTANCE 9 PASS: byte-identical structured reports for "
        f"{', '.join(pairs)}"
    )
