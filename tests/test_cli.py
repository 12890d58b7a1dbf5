import json
import subprocess
import sys
from pathlib import Path

import pytest

from nogo_lab import fileio
from nogo_lab.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nogo_lab.cli", *args],
        capture_output=True,
        text=True,
    )


def commuting_model_with(path: tuple, raw: str) -> str:
    """The bundled commuting model as JSON text, with the entry at ``path``
    replaced by the raw JSON ``raw``."""
    data = json.loads(Path(fileio.resolve_input_path("commuting.model")).read_text())
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
        assert report["schemaVersion"] == 1
        assert report["config"]["seed"] == 7
        verdicts = {c["rule"]: c["verdict"] for c in report["checks"]}
        assert verdicts["forced-commutation"] == "pass"
        assert verdicts["route-agreement"] == "pass"
        assert report["summary"]["exitCode"] == 0

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


class TestCheckModel:
    def test_bundled_fixture_passes(self):
        assert main(["check-model", "commuting.model"]) == 0

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

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("{nope", "line 1", id="invalid-json"),
            pytest.param(
                commuting_model_with(("weights", 0), '"a"'),
                "weights: expected 3 finite numbers",
                id="weights-string",
            ),
            pytest.param(
                commuting_model_with(("values", "O1", 2), "null"),
                "values[O1]: expected 3 finite numbers",
                id="value-row-null",
            ),
            pytest.param(
                commuting_model_with(("state", 0, 0), "[1e999, 0.0]"),
                "state: matrix entry must be a finite number",
                id="state-non-finite",
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

    def test_unknown_scenario_name(self):
        r = run_cli("feasibility", "missing.scenario")
        assert r.returncode == 2
        assert "bundled" in r.stderr

    def test_angles_on_non_chsh_scenario_rejected(self):
        assert main(["feasibility", "triad-dim3.scenario", "--angles", "0,90,45,135"]) == 2

    def test_bad_angles_string(self):
        assert main(["feasibility", "chsh.scenario", "--angles", "1,2"]) == 2


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
        # the fixed denominator; the boundary guard must refuse to conclude
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


def test_console_entry_point_smoke():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "nogo-lab" in r.stdout
