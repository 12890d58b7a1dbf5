import ast
import contextlib
import gc
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nogo_lab import cli, fileio, hvmodel, nogo, simplex
from nogo_lab.check import Check
from nogo_lab.cli import main
from nogo_lab.errors import NotHermitian
from nogo_lab.opcore import dag, random_unitary
from nogo_lab.rng import make_generator

from conftest import matrix_to_json


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nogo_lab.cli", *args],
        capture_output=True,
        text=True,
    )


def fixture_with(fixture: str, path: tuple, raw: str) -> str:
    """A bundled fixture as JSON text, with the entry at ``path`` replaced by
    the raw JSON ``raw``."""
    data = json.loads(Path(fileio.resolve_input_path(fixture)).read_text())
    *outer, last = path
    target = data
    for key in outer:
        target = target[key]
    target[last] = "<raw>"
    return json.dumps(data).replace('"<raw>"', raw)


class TestVerifyCommutation:
    def test_small_batch_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "verify-commutation",
                "--dim", "4", "--trials", "25", "--seed", "7",
                "--format", "structured", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schemaVersion"] == 4
        assert report["config"]["seed"] == 7
        verdicts = {c["rule"]: c["verdict"] for c in report["checks"]}
        assert verdicts["forced-commutation"] == "pass"
        assert verdicts["route-agreement"] == "pass"
        assert report["summary"]["exitCode"] == 0

    @pytest.mark.parametrize("flag", ["--tol", "--cluster-gap"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, flag, value):
        # --cluster-gap is read by check-model only
        command = {
            "--tol": ["verify-commutation", "--dim", "3", "--trials", "2"],
            "--cluster-gap": ["check-model", "commuting.model"],
        }[flag]
        r = run_cli(*command, f"{flag}={value}")
        assert r.returncode == 2
        assert "must be positive and finite" in r.stderr

    def test_routes_that_never_flag_fail_trace_symmetry(self, monkeypatch, tmp_path):
        """Both routes passing every pair, noncommuting ones included, is a
        failure of the trace-symmetry check, not a clean batch."""

        def always_passes(pairs, tol):
            return [Check.judged("forced-commutation", 0.0, tol)] * len(pairs.a)

        monkeypatch.setattr(nogo, "forced_commutation_stack", always_passes)
        monkeypatch.setattr(nogo, "forced_commutation_alt_stack", always_passes)
        checks, tallies = nogo.commutation_batch(1, 4, 10)
        assert tallies == {"pass": 40, "hypothesis-violated": 0}
        symmetry = checks[1].as_dict()
        assert symmetry["rule"] == "trace-symmetry"
        assert (symmetry["verdict"], symmetry["residual"], symmetry["bound"]) == ("fail", 10.0, 0.0)
        out = tmp_path / "r.json"
        argv = ["verify-commutation", "--dim", "4", "--trials", "10", "--seed", "1"]
        assert main([*argv, "--format", "structured", "--out", str(out)]) == 1

    def test_route_conclusions_set_the_commuting_pairs_residual(self, monkeypatch, tmp_path):
        """"AB = BA on every commuting pair" reads the routes' own conclusion
        residuals: a route that concludes AB = BA with a residual past
        BUILT_TOL fails the entry, though the sampled pairs commute."""
        concluding = nogo.forced_commutation_stack

        def loose(pairs, tol):
            for check in concluding(pairs, tol):
                parts = [p._replace(residual=1e-6) if p.name == "conclusion AB = BA" else p
                         for p in check.parts]
                yield check._replace(parts=tuple(parts))

        monkeypatch.setattr(nogo, "forced_commutation_stack", loose)
        checks, tallies = nogo.commutation_batch(1, 4, 10)
        assert tallies == {"pass": 20, "hypothesis-violated": 20}
        entry = checks[0].as_dict()
        assert entry["rule"] == "forced-commutation"
        assert (entry["verdict"], entry["residual"], entry["bound"]) == ("fail", 1e-6, 1e-8)
        assert entry["firstViolation"] == "AB = BA on every commuting pair"
        out = tmp_path / "r.json"
        argv = ["verify-commutation", "--dim", "4", "--trials", "10", "--seed", "1"]
        assert main([*argv, "--format", "structured", "--out", str(out)]) == 1

    def test_dim_bound_rejected(self):
        assert main(["verify-commutation", "--dim", "1"]) == 2
        assert main(["verify-commutation", "--dim", "33"]) == 2

    def test_thousand_trial_batch(self, tmp_path):
        out = tmp_path / "big.json"
        code = main(
            [
                "verify-commutation",
                "--dim", "4", "--trials", "1000", "--seed", "7",
                "--format", "structured", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdictCounts"] == {"pass": 2000, "hypothesis-violated": 2000}

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert (
                main(
                    [
                        "verify-commutation",
                        "--dim", "3", "--trials", "10", "--seed", "99",
                        "--format", "structured", "--out", str(path),
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify-commutation", "--dim", "3", "--trials", "10", "--seed", "1",
              "--format", "structured", "--out", str(a)])
        main(["verify-commutation", "--dim", "3", "--trials", "10", "--seed", "2",
              "--format", "structured", "--out", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["config"]["seed"] != rb["config"]["seed"]


class TestVerifyConditioning:
    def test_dim3_batch_passes(self):
        assert main(["verify-conditioning", "--dim", "3", "--trials", "10", "--seed", "1"]) == 0

    def test_dim2_rejected_with_config_error(self):
        r = run_cli("verify-conditioning", "--dim", "2", "--trials", "5")
        assert r.returncode == 2
        assert "dimension >= 3" in r.stderr

    def test_zero_trials_rejected(self):
        assert main(["verify-conditioning", "--dim", "3", "--trials", "0"]) == 2

    def test_loose_tol_passes(self):
        argv = ["--dim", "4", "--trials", "20", "--seed", "1", "--tol", "0.5"]
        assert main(["verify-conditioning", *argv]) == 0


class TestCheckModel:
    def test_bundled_fixture_passes(self):
        assert main(["check-model", "commuting.model"]) == 0

    def test_only_a_failed_precondition_skips_an_instance(self, monkeypatch, capsys):
        # Any other library error inside a rule checker is an error (exit 2),
        # not a silently dropped rule.
        def broken(*args, **kwargs):
            raise NotHermitian("sum of the pair is not Hermitian")

        monkeypatch.setattr(hvmodel, "check_sum_rule", broken)
        assert main(["check-model", "commuting.model"]) == 2
        assert "sum of the pair is not Hermitian" in capsys.readouterr().err

    def test_corrupted_weight_flags_marginal_rule(self, tmp_path):
        path = fileio.resolve_input_path("commuting.model")
        data = json.loads(open(path).read())
        data["weights"][0] += 0.05
        bad = tmp_path / "bad.model"
        bad.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        code = main(["check-model", str(bad), "--format", "structured", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        flagged = {c["rule"]: c for c in report["checks"] if c["verdict"] != "pass"}
        assert "marginal-rule" in flagged
        marginal = flagged["marginal-rule"]
        assert marginal["violations"] == 8
        assert marginal["firstViolation"] == "O1, S=[1.0]: phase-space mass 0.55 vs trace 0.5"
        assert all("violations" not in c for c in report["checks"] if c["verdict"] == "pass")

    def test_eigenvalue_labels_are_rounded(self, tmp_path):
        # Conjugated by this unitary, O1's zero level comes out of eigh as
        # -1.942890293094024e-16; the report names it 0.0.
        path = fileio.resolve_input_path("commuting.model")
        data = json.loads(open(path).read())
        u = random_unitary(make_generator(3), 3)

        def rotate(mat):
            return matrix_to_json(u @ fileio.matrix_from_json(mat) @ dag(u))

        data["observables"] = {k: rotate(v) for k, v in data["observables"].items()}
        data["state"] = rotate(data["state"])
        data["weights"][1] += 0.05
        bad = tmp_path / "rotated.model"
        bad.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert main(["check-model", str(bad), "--format", "structured", "--out", str(out)]) == 1
        flagged = {c["rule"]: c for c in json.loads(out.read_text())["checks"]}
        assert flagged["marginal-rule"]["firstViolation"].startswith("O1, S=[0.0]:")
        assert flagged["joint-rule"]["firstViolation"].startswith("(O1 in [0.0]) & (O2 in [1.0]):")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conditioning_on_a_null_trace_is_skipped(self, tmp_path):
        """tr[D P1] = 0 while mu(P1 = 1) = 1/2: Pr[P0|P1] has no quantum
        side, so that instance is skipped and the marginal rule flags the
        mismatch; no NaN reaches the report."""

        def diag(*d):
            return matrix_to_json(np.diag(d))

        model = {
            "kind": "model",
            "dim": 3,
            "state": diag(1.0, 0.0, 0.0),
            "observables": {"P0": diag(1.0, 0.0, 0.0), "P1": diag(0.0, 1.0, 0.0)},
            "points": ["w0", "w1", "w2"],
            "weights": [0.5, 0.5, 0.0],
            "values": {"P0": [1.0, 0.0, 0.0], "P1": [0.0, 1.0, 0.0]},
        }
        path = tmp_path / "null.model"
        path.write_text(json.dumps(model))
        out = tmp_path / "r.json"
        assert main(["check-model", str(path), "--format", "structured", "--out", str(out)]) == 1

        def reject(constant):
            raise ValueError(f"non-finite number {constant} in the report")

        checks = {c["rule"]: c for c in json.loads(out.read_text(), parse_constant=reject)["checks"]}
        assert checks["conditional-rule"]["name"] == "conditional-rule over 1 instances"
        assert checks["conditional-rule"]["verdict"] == "pass"
        assert checks["marginal-rule"]["verdict"] == "fail"

    @pytest.mark.parametrize("gap, code, marginals", [("1e-6", 0, 3), ("1e-8", 1, 4)])
    def test_every_rule_groups_the_levels_at_the_cluster_gap(self, tmp_path, gap, code, marginals):
        """A's eigenvalues 1 and 1 + 1e-7 are one level at --cluster-gap 1e-6,
        where the model is right, and two at the default 1e-8, where the
        marginal rule fails."""
        model = {
            "kind": "model",
            "dim": 3,
            "state": np.diag([0.5, 0.3, 0.2]).tolist(),
            "observables": {"A": np.diag([1.0, 1.0 + 1e-7, 0.0]).tolist()},
            "points": ["w0", "w1", "w2"],
            "weights": [0.5, 0.3, 0.2],
            "values": {"A": [1.0, 1.0, 0.0]},
        }
        path = tmp_path / "near.model"
        path.write_text(json.dumps(model))
        out = tmp_path / "r.json"
        argv = ["check-model", str(path), "--cluster-gap", gap, "--format", "structured"]
        assert main([*argv, "--out", str(out)]) == code
        checks = {c["rule"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["marginal-rule"]["name"] == f"marginal-rule over {marginals} instances"
        assert checks["marginal-rule"]["verdict"] == ("pass" if code == 0 else "fail")
        assert checks["spectrum-rule"]["verdict"] == "pass"

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("{nope", "line 1", id="invalid-json"),
            pytest.param(
                fixture_with("commuting.model", ("weights", 0), '"a"'),
                "weights: expected 3 finite numbers",
                id="weights-string",
            ),
            pytest.param(
                fixture_with("commuting.model", ("values", "O1", 2), "null"),
                "values[O1]: expected 3 finite numbers",
                id="value-row-null",
            ),
            pytest.param(
                fixture_with("commuting.model", ("state", 0, 0), "[1e999, 0.0]"),
                "state: matrix entry must be a finite number",
                id="state-non-finite",
            ),
            pytest.param(
                fixture_with("commuting.model", ("points", 1), '"w0"'),
                "points: duplicate point labels ['w0']",
                id="duplicate-points",
            ),
        ],
    )
    def test_malformed_file_is_config_error(self, tmp_path, text, message):
        bad = tmp_path / "broken.model"
        bad.write_text(text)
        r = run_cli("check-model", str(bad))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert message in r.stderr


class TestFeasibilityCommand:
    def test_chsh_singlet_reports_violation(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "feasibility", "chsh.scenario",
                "--state", "singlet", "--angles", "0,90,45,135",
                "--format", "structured", "--out", str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["chshValue"] == pytest.approx(2.8284271247461903)
        assert report["checks"][0]["verdict"] == "infeasible"
        assert "violatedConstraint" in report

    def test_human_output_prints_the_bound_as_precisely_as_the_residual(self, capsys):
        # The rounding bound is 1.05e-8; one decimal would print 1.0e-08.
        assert main(["feasibility", "chsh"]) == 1
        assert "residual=3.452e-02 bound=1.050e-08" in capsys.readouterr().out

    def test_magic_square_has_no_assignments(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["feasibility", "magic-square.scenario", "--format", "structured", "--out", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["checks"][0]["verdict"] == "no-admissible-assignments"

    def test_all_diagonal_scenario_feasible_with_certificate(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["feasibility", "triad-dim3.scenario", "--format", "structured", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        weights = report["certificate"]["weights"]
        assert len(weights) == 3
        from fractions import Fraction

        assert sum(Fraction(w["weight"]) for w in weights) == 1

    def test_ghz_fixture_is_infeasible(self):
        assert main(["feasibility", "ghz.scenario"]) == 1

    def test_no_simplex_proposal_is_undecidable(self, monkeypatch, capsys):
        monkeypatch.setattr(simplex, "_propose_basis", lambda a, b, flip: None)
        assert main(["feasibility", "chsh"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "undecidable at this precision" in err

    def test_unknown_scenario_name(self):
        r = run_cli("feasibility", "missing.scenario")
        assert r.returncode == 2
        assert "bundled" in r.stderr

    def test_angles_on_non_chsh_scenario_rejected(self):
        assert main(["feasibility", "triad-dim3.scenario", "--angles", "0,90,45,135"]) == 2

    def test_bad_angles_string(self):
        assert main(["feasibility", "chsh.scenario", "--angles", "1,2"]) == 2

    def test_items_read_from_files_get_the_file_tolerance(self, tmp_path):
        # Entries rounded to 7 decimals put the settings' eigenvalues
        # 2.7e-8 from +-1: inside COARSE_TOL, outside the default CLUSTER_GAP.
        data = json.loads(Path(fileio.resolve_input_path("chsh")).read_text())
        for item in data["items"].values():
            item["matrix"] = np.round(item["matrix"], 7).tolist()
        path = tmp_path / "rounded.scenario"
        path.write_text(json.dumps(data))
        assert main(["feasibility", str(path)]) == 1


class TestGoldenReports:
    """Byte-exact goldens for reports whose payload is exact-rational only
    (no eigensolver output), so they are stable across platforms."""

    GOLDEN = Path(__file__).parent / "golden"

    @pytest.mark.parametrize(
        "golden, args, expect_code",
        [
            (
                "triad-feasibility.json",
                ["feasibility", "triad-dim3.scenario"],
                0,
            ),
            (
                "magic-square-feasibility.json",
                ["feasibility", "magic-square.scenario"],
                1,
            ),
            (
                "ghz-feasibility.json",
                ["feasibility", "ghz.scenario"],
                1,
            ),
        ],
    )
    def test_report_matches_golden(self, tmp_path, golden, args, expect_code):
        out = tmp_path / "report.json"
        code = main([*args, "--format", "structured", "--out", str(out)])
        assert code == expect_code
        assert out.read_bytes() == (self.GOLDEN / golden).read_bytes()


class TestStateOverrides:
    def test_state_from_file(self, tmp_path):
        state_path = tmp_path / "mix.json"
        state_path.write_text(
            json.dumps({"matrix": [[0.25, 0, 0, 0], [0, 0.25, 0, 0],
                                   [0, 0, 0.25, 0], [0, 0, 0, 0.25]]})
        )
        code = main(["feasibility", "chsh.scenario", "--state", str(state_path)])
        assert code == 0  # maximally mixed is classical for any settings

    def test_unknown_state_name(self):
        assert main(["feasibility", "chsh.scenario", "--state", "wat"]) == 2

    def test_singlet_needs_dim_four(self):
        assert main(["feasibility", "triad-dim3.scenario", "--state", "singlet"]) == 2

    def test_maximally_mixed_by_name(self):
        # dim-4 mixed state: marginals 1/2 and joints 1/4 rationalize exactly
        assert main(["feasibility", "chsh.scenario", "--state", "maximally-mixed"]) == 0

    def test_inconsistent_rounding_is_undecidable_not_infeasible(self):
        # all-1/3 marginals cannot be rounded to a consistent rational set at
        # the fixed denominator, but the Farkas margin of that infeasibility
        # is within the rounding bound, so no verdict may be concluded
        assert main(["feasibility", "triad-dim3.scenario", "--state", "maximally-mixed"]) == 2


class TestSeedHandling:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("NOGO_LAB_SEED", "321")
        main(["verify-commutation", "--dim", "3", "--trials", "5",
              "--format", "structured", "--out", str(out1)])
        monkeypatch.delenv("NOGO_LAB_SEED")
        main(["verify-commutation", "--dim", "3", "--trials", "5", "--seed", "321",
              "--format", "structured", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("NOGO_LAB_SEED", "not-a-number")
        assert main(["verify-commutation", "--dim", "3", "--trials", "5"]) == 2

    @pytest.mark.parametrize(
        "argv, code",
        [(["check-model", "commuting.model"], 0), (["feasibility", "chsh"], 1)],
        ids=["check-model", "feasibility"],
    )
    def test_seedless_commands_ignore_env_seed(self, monkeypatch, argv, code):
        monkeypatch.setenv("NOGO_LAB_SEED", "abc")
        assert main(argv) == code
        assert main(["verify-commutation", "--dim", "3", "--trials", "1"]) == 2


class TestFlagTable:
    """Each command accepts exactly the flags it reads and echoes them."""

    ACCEPTS = {
        "verify-commutation": ["--dim", "3", "--trials", "2", "--seed", "1", "--tol", "1e-9"],
        "verify-conditioning": ["--dim", "3", "--trials", "2", "--seed", "1", "--tol", "1e-9"],
        "check-model": ["commuting.model", "--tol", "1e-9", "--cluster-gap", "1e-8"],
        "feasibility": ["chsh", "--state", "maximally-mixed", "--angles", "0,90,45,135"],
    }
    ECHO = {
        "verify-commutation": {"command", "dim", "trials", "seed", "tol", "format"},
        "verify-conditioning": {"command", "dim", "trials", "seed", "tol", "format"},
        "check-model": {"command", "path", "tol", "clusterGap", "format"},
        "feasibility": {"command", "path", "state", "angles", "format"},
    }

    @pytest.mark.parametrize("command", sorted(ACCEPTS))
    def test_config_echoes_exactly_the_accepted_flags(self, tmp_path, command):
        out = tmp_path / "r.json"
        argv = [command, *self.ACCEPTS[command], "--format", "structured", "--out", str(out)]
        assert main(argv) == 0
        assert set(json.loads(out.read_text())["config"]) == self.ECHO[command]

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["feasibility", "chsh"], ["--tol", "1e-9"]),
            (["feasibility", "chsh"], ["--cluster-gap", "1e-8"]),
            (["feasibility", "chsh"], ["--seed", "1"]),
            (["check-model", "commuting.model"], ["--seed", "1"]),
            (["verify-commutation", "--trials", "1"], ["--cluster-gap", "1e-8"]),
            (["verify-conditioning", "--trials", "1"], ["--cluster-gap", "1e-8"]),
        ],
        ids=lambda argv: argv[0].lstrip("-"),
    )
    def test_removed_flag_is_usage_error(self, command, flag):
        r = run_cli(*command, *flag)
        assert r.returncode == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in r.stderr


def _corpus():
    for command in ("verify-commutation", "verify-conditioning"):
        for dim in (3, 4, 16, 32):
            for seed in (1, 2):
                argv = [command, "--dim", str(dim), "--seed", str(seed), "--trials", "3"]
                yield pytest.param(argv, id=f"{command}-{dim}-{seed}")
    for name in ("chsh", "magic-square", "ghz", "triad-dim3"):
        yield pytest.param(["feasibility", name], id=name)
    yield pytest.param(["check-model", "commuting.model"], id="commuting.model")
    yield pytest.param(["check-model", "corrupted-weight"], id="corrupted-weight")


@pytest.mark.parametrize("argv", _corpus())
def test_every_verdict_agrees_with_its_bound(tmp_path, argv):
    """Every thresholded report entry, feasibility included, carries its
    bound and passes exactly when its residual is within it; only the exact
    no-admissible-assignments verdict has no bound."""
    if argv[1] == "corrupted-weight":
        data = json.loads(Path(fileio.resolve_input_path("commuting.model")).read_text())
        data["weights"][0] += 0.05
        argv = ["check-model", str(tmp_path / "corrupted.model")]
        Path(argv[1]).write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert main([*argv, "--format", "structured", "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    assert report["schemaVersion"] == 4
    for entry in report["checks"]:
        if entry["verdict"] == "no-admissible-assignments":
            assert "bound" not in entry
        else:
            assert (entry["verdict"] in ("pass", "expected")) == (
                entry["residual"] <= entry["bound"]
            ), entry


def test_console_entry_point_smoke():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "nogo-lab" in r.stdout


def test_console_script_writes_the_bytes_main_writes(capsysbinary):
    """``python -m nogo_lab.cli`` runs :func:`cli.run`, which exits with the
    code of ``main`` after writing the same report bytes."""
    argv = ["feasibility", "chsh", "--format", "structured"]
    r = subprocess.run([sys.executable, "-m", "nogo_lab.cli", *argv], capture_output=True)
    assert main(argv) == r.returncode == 1
    assert r.stdout == capsysbinary.readouterr().out


def test_the_console_script_runs_without_the_cyclic_collector():
    probe = ("import atexit, gc; atexit.register(lambda: print(gc.isenabled())); "
             "from nogo_lab.cli import run; run()")
    r = subprocess.run([sys.executable, "-c", probe, "--version"], capture_output=True, text=True)
    assert r.stdout.split() == ["nogo-lab", "0.1.0", "False"], r.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path):
    """Only the console script turns the cyclic collector off; in-process
    callers keep theirs."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["feasibility", "chsh", "--out", str(tmp_path / "report")]) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_state_flag_is_checked_before_the_file_is_read(capsys):
    assert main(["feasibility", "no-such-scenario", "--state", "wat"]) == 2
    assert capsys.readouterr().err.startswith("nogo-lab: error: unknown state 'wat'")


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(hvmodel, "check_model", broken)
    assert main(["check-model", "commuting.model"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("nogo-lab: internal error:")
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_unwritable_out_is_config_error(tmp_path, capsys):
    assert main(["check-model", "commuting.model", "--out", str(tmp_path / "no" / "r")]) == 2
    assert "cannot write --out" in capsys.readouterr().err


def test_cli_uses_no_private_library_name():
    """cli.py imports no ``_``-prefixed name and reads none off an imported
    module: what the commands need is the library's public surface."""
    tree = ast.parse(Path(cli.__file__).read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                modules.add(alias.asname or alias.name)
                private.append(alias.name)
    private += [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
    ]
    assert [n for n in private if n.startswith("_") and not n.startswith("__")] == []


def test_cli_import_loads_no_scipy():
    r = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, nogo_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _field_paths(node, prefix=()):
    """Every key/index path into a JSON tree, containers included."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


FUZZ_TARGETS = [
    (command, fixture, path)
    for command, fixture in (("check-model", "commuting.model"), ("feasibility", "triad-dim3.scenario"))
    for path in _field_paths(json.loads(Path(fileio.resolve_input_path(fixture)).read_text()))
    if len(path) <= 4  # deeper paths are [re, im] parts, parsed like the entries above them
]


@settings(max_examples=300)
@given(
    target=st.sampled_from(FUZZ_TARGETS),
    value=st.sampled_from([None, True, "x", 7, [], {}]),
)
def test_mutated_fixture_exits_0_1_or_2(target, value):
    """One field of a bundled fixture set to a wrong-typed value never
    crashes: the run ends with a verdict or a configuration error."""
    command, fixture, path = target
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / fixture
        src.write_text(fixture_with(fixture, path, json.dumps(value)))
        out = Path(tmp) / "report"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(src), "--out", str(out)])
    assert code in (0, 1, 2), err.getvalue()
