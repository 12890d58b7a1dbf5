import json
from fractions import Fraction

import numpy as np
import pytest

from nogo_lab import feasibility, fileio
from nogo_lab.errors import FormatError, NotDensity
from nogo_lab.feasibility import chsh_scenario, enumerate_assignments
from nogo_lab.fileio import (
    load_model,
    load_scenario,
    matrix_from_json,
    resolve_input_path,
)
from nogo_lab.hvmodel import build_commuting_model, check_spectrum_rule
from nogo_lab.opcore import opnorm
from nogo_lab.quantum import Density, Observable

from conftest import matrix_to_json


# Writers for the loaders' round trips.  No command writes a scenario or a
# model, so they live here rather than in the package.
def scenario_to_json(s):
    out = {
        "schemaVersion": fileio.FILE_SCHEMA_VERSION,
        "kind": "scenario",
        "name": s.name,
        "dim": s.dim,
        "items": {
            label: {"kind": item.kind, "matrix": matrix_to_json(item.mat)}
            for label, item in sorted(s.items.items())
        },
        "contexts": [
            {
                "labels": list(c.labels),
                **({"productSign": c.product_sign} if c.product_sign is not None else {}),
            }
            for c in s.contexts
        ],
    }
    if s.state is not None:
        out["state"] = matrix_to_json(s.state.mat)
    return out


def save_scenario(s, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_json(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def model_to_json(m):
    return {
        "schemaVersion": fileio.FILE_SCHEMA_VERSION,
        "kind": "model",
        "dim": m.state.dim,
        "state": matrix_to_json(m.state.mat),
        "observables": {
            label: matrix_to_json(obs.mat) for label, obs in sorted(m.registered.items())
        },
        "points": list(m.space.points),
        "weights": [float(w) for w in m.space.weights],
        "values": {
            label: [float(v) for v in row] for label, row in sorted(m.values.items())
        },
    }


def save_model(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestMatrixJson:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0], [0.5j, -1]], dtype=complex)
        back = matrix_from_json(matrix_to_json(m))
        assert opnorm(back - m) == 0.0

    def test_accepts_plain_reals(self):
        m = matrix_from_json([[1, 0], [0, 1]])
        assert opnorm(m - np.eye(2)) == 0.0

    def test_rejects_ragged(self):
        with pytest.raises(FormatError):
            matrix_from_json([[1, 0], [0]])

    def test_rejects_garbage_entry(self):
        with pytest.raises(FormatError) as err:
            matrix_from_json([[1, "x"], [0, 1]], where="items[A].matrix")
        assert "items[A].matrix" in str(err.value)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        s = chsh_scenario()
        path = tmp_path / "x.scenario"
        save_scenario(s, str(path))
        s2 = load_scenario(str(path))
        assert s2.dim == 4
        assert s2.labels == s.labels
        assert enumerate_assignments(s2) == enumerate_assignments(s)
        assert opnorm(s2.state.mat - s.state.mat) < 1e-12

    def test_ray_items_expand_to_projectors(self, tmp_path):
        data = {
            "kind": "scenario",
            "dim": 3,
            "items": {
                "P0": {"kind": "projector", "ray": [1, 0, 0]},
                "P1": {"kind": "projector", "ray": [0, [0, 1], 0]},
            },
            "contexts": [{"labels": ["P0", "P1"]}],
        }
        path = tmp_path / "rays.scenario"
        path.write_text(json.dumps(data))
        s = load_scenario(str(path))
        assert opnorm(s.items["P0"].mat - np.diag([1.0, 0, 0])) < 1e-12
        assert s.items["P1"].mat[1, 1] == pytest.approx(1.0)

    def test_a_huge_ray_is_the_projector_of_its_direction(self, tmp_path):
        """[1e308, 1e308, 0] is the ray of [1, 1, 0]: its norm overflows
        unscaled, which once made it the zero matrix, and so a feasible
        certificate with the item's marginal 0 under a state giving it 1/2."""
        reports = []
        for ray in ([1e308, 1e308, 0], [1, 1, 0]):
            data = {
                "kind": "scenario",
                "dim": 3,
                "items": {"P": {"ray": ray}, "Q": {"ray": [0, 0, 1]}},
                "contexts": [{"labels": ["P", "Q"]}],
                "state": np.diag([0.5, 0.5, 0.0]).tolist(),
            }
            path = tmp_path / "ray.scenario"
            path.write_text(json.dumps(data))
            s = load_scenario(str(path))
            reports.append((s.items["P"].mat, feasibility.hv_feasibility(s).certificate))
        (huge, huge_cert), (unit, unit_cert) = reports
        assert np.array_equal(huge, unit)
        assert huge_cert == unit_cert
        assert dict(unit_cert)[(1, 0)] == Fraction(1, 2)

    def test_a_zero_ray_names_its_field(self, tmp_path):
        data = {"kind": "scenario", "dim": 2, "items": {"P": {"ray": [1e-13, 0]}}}
        path = tmp_path / "zero.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=r"\.items\[P\]\.ray: zero vector$"):
            load_scenario(str(path))

    def test_missing_field_names_the_field(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text(json.dumps({"kind": "scenario", "dim": 3}))
        with pytest.raises(FormatError) as err:
            load_scenario(str(path))
        assert "items" in str(err.value)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("{broken")
        with pytest.raises(FormatError) as err:
            load_scenario(str(path))
        assert "line 1" in str(err.value)

    def test_bool_dim_rejected(self, tmp_path):
        path = tmp_path / "bool.scenario"
        path.write_text(
            json.dumps({"kind": "scenario", "dim": True, "items": {"P": {"matrix": [[1]]}}})
        )
        with pytest.raises(FormatError) as err:
            load_scenario(str(path))
        assert "dim" in str(err.value)

    def test_bad_product_sign(self, tmp_path):
        data = {
            "kind": "scenario",
            "dim": 2,
            "items": {"P": {"kind": "projector", "matrix": [[1, 0], [0, 0]]}},
            "contexts": [{"labels": ["P"], "productSign": 2}],
        }
        path = tmp_path / "sign.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_scenario(str(path))

    def test_bool_product_sign_rejected(self, tmp_path):
        # True == 1 in Python, so a membership test alone would take it as +1
        data = json.loads(open(resolve_input_path("triad-dim3")).read())
        data["contexts"][0]["productSign"] = True
        path = tmp_path / "sign.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load_scenario(str(path))
        assert "contexts[0].productSign" in str(err.value)

    def test_contexts_must_be_an_array(self, tmp_path):
        data = json.loads(open(resolve_input_path("triad-dim3")).read())
        data["contexts"] = 5
        path = tmp_path / "ctx.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load_scenario(str(path))
        assert "contexts: expected an array" in str(err.value)

    @pytest.mark.parametrize("field, value, message", [
        (("items", "A1", "matrix"), [[1, 0], [0, -1]], r"c\.scenario\.items\[A1\]\.matrix: wrong dimension$"),
        (("state",), [[0.5, 0.0], [0.0, 0.5]], r"c\.scenario\.state: wrong dimension$"),
        (("contexts", 0, "labels"), ["A1", "Z9"], r"c\.scenario\.contexts\[0\]\.labels: unknown label 'Z9'$"),
        (("name",), 5, r"c\.scenario\.name: expected a string$"),
        (("name",), None, r"c\.scenario\.name: expected a string$"),
        (("name",), ["x"], r"c\.scenario\.name: expected a string$"),
    ], ids=["item-smaller-than-dim", "state-smaller-than-dim", "unknown-context-label",
            "name-number", "name-null", "name-array"])
    def test_sizes_and_context_labels_are_structure(self, tmp_path, monkeypatch, field, value, message):
        """Checked in the pure-Python pass, with the fault located in the
        file, before any operator is built."""
        def no_operators(*args, **kwargs):
            raise AssertionError("built an operator")

        monkeypatch.setattr(feasibility, "make_item", no_operators)
        data = json.loads(open(resolve_input_path("chsh")).read())
        *outer, last = field
        target = data
        for key in outer:
            target = target[key]
        target[last] = value
        path = tmp_path / "c.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=message):
            load_scenario(str(path))


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        fam = {
            "O1": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
            "O2": Observable.from_matrix(np.diag([1.0, 1.0, 0.0])),
        }
        m = build_commuting_model(fam, Density.from_matrix(np.diag([0.5, 0.25, 0.25])))
        path = tmp_path / "m.model"
        save_model(m, str(path))
        m2 = load_model(str(path))
        assert m2.space.points == m.space.points
        assert np.allclose(m2.space.weights, m.space.weights)
        assert check_spectrum_rule(m2).ok

    def test_semantic_violations_load_fine(self, tmp_path):
        # lenient structural load: bad weights are the checkers' business
        fam = {"O1": Observable.from_matrix(np.diag([1.0, 0.0]))}
        m = build_commuting_model(fam, Density.maximally_mixed(2))
        path = tmp_path / "m.model"
        save_model(m, str(path))
        data = json.loads(path.read_text())
        data["weights"][0] += 0.3
        path.write_text(json.dumps(data))
        m2 = load_model(str(path))
        assert m2.space.weights.sum() == pytest.approx(1.3)

    def test_values_must_cover_observables(self, tmp_path):
        fam = {"O1": Observable.from_matrix(np.diag([1.0, 0.0]))}
        m = build_commuting_model(fam, Density.maximally_mixed(2))
        data = model_to_json(m)
        del data["values"]["O1"]
        path = tmp_path / "m.model"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_a_structural_fault_is_reported_before_a_numeric_one(self, tmp_path):
        """The whole file's structure is checked before any operator is
        built, so a string weight beats a state that is no density."""
        data = json.loads(open(resolve_input_path("commuting.model")).read())
        data["state"][0][0] = [-0.5, 0.0]
        data["weights"][1] = "a"
        path = tmp_path / "m.model"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=r"\.weights: expected 3 finite numbers"):
            load_model(str(path))
        data["weights"][1] = 0.25
        path.write_text(json.dumps(data))
        with pytest.raises(NotDensity, match="negative eigenvalue"):
            load_model(str(path))

    @pytest.mark.parametrize("fields, message", [
        ({"dim": 3.0}, r"m\.model: dim must be a positive integer$"),
        ({"dim": "3"}, r"m\.model: dim must be a positive integer$"),
        ({"state": [[0.5, 0.0], [0.0, 0.5]]}, r"m\.model\.state: wrong dimension$"),
    ], ids=["float-dim", "string-dim", "state-smaller-than-dim"])
    def test_dim_is_checked_and_the_state_against_it(self, tmp_path, fields, message):
        """As a scenario's ``dim`` is, and before any operator is built, so a
        state of the wrong size is located in the file."""
        data = json.loads(open(resolve_input_path("commuting.model")).read())
        data.update(fields)
        path = tmp_path / "m.model"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=message):
            load_model(str(path))

    def test_the_state_is_stored_as_a_scenario_stores_it(self, tmp_path):
        """Its Hermitian part over its real trace, bit for bit as
        ``Scenario.with_state`` stores it."""
        data = json.loads(open(resolve_input_path("commuting.model")).read())
        data["state"][0][1] = [0.0, 4e-8]  # a Hermitian defect within COARSE_TOL
        path = tmp_path / "m.model"
        path.write_text(json.dumps(data))
        stored = load_model(str(path)).state.mat
        as_scenario = feasibility.Scenario(3, {}, ()).with_state(Density(matrix_from_json(data["state"])))
        assert np.array_equal(stored, as_scenario.state.mat)
        assert np.array_equal(stored, stored.conj().T) and abs(np.trace(stored) - 1) < 1e-15

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(json.dumps({"kind": "scenario", "dim": 2, "items": {}}))
        with pytest.raises(FormatError):
            load_model(str(path))


class TestBundled:
    def test_all_fixtures_present(self):
        names = fileio.bundled_names()
        for expected in (
            "chsh.scenario",
            "ghz.scenario",
            "magic-square.scenario",
            "triad-dim3.scenario",
            "commuting.model",
        ):
            assert expected in names

    def test_resolve_prefers_filesystem(self, tmp_path):
        local = tmp_path / "chsh.scenario"
        save_scenario(chsh_scenario(), str(local))
        assert resolve_input_path(str(local)) == str(local)

    def test_resolve_falls_back_to_bundle(self):
        path = resolve_input_path("magic-square.scenario")
        s = load_scenario(path)
        assert s.dim == 4 and len(s.items) == 9

    def test_resolve_unknown_name(self):
        with pytest.raises(FormatError):
            resolve_input_path("no-such-fixture.scenario")

    def test_bundled_fixtures_all_load(self):
        for name in fileio.bundled_names():
            path = resolve_input_path(name)
            if name.endswith(".scenario"):
                load_scenario(path)
            else:
                load_model(path)

    @pytest.mark.parametrize(
        "name, load, dump",
        [
            ("chsh.scenario", load_scenario, scenario_to_json),
            ("commuting.model", load_model, model_to_json),
        ],
    )
    def test_saved_files_keep_the_fixture_schema_version(self, name, load, dump):
        path = resolve_input_path(name)
        with open(path, encoding="utf-8") as fh:
            declared = json.load(fh)["schemaVersion"]
        assert dump(load(path))["schemaVersion"] == declared == fileio.FILE_SCHEMA_VERSION


@pytest.mark.parametrize("fixture, load", [("chsh.scenario", load_scenario),
                                           ("commuting.model", load_model)])
def test_schema_version_is_1_when_present(tmp_path, fixture, load):
    """Another version, or one that is no integer, is a FormatError naming
    the field; a file without the field loads as schema 1."""
    data = json.loads(open(resolve_input_path(fixture)).read())
    path = tmp_path / fixture
    for version in (99, "banana", 2, 1.0, True, None):
        data["schemaVersion"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=rf"{fixture}\.schemaVersion: must be 1, got {version!r}$"):
            load(str(path))
    del data["schemaVersion"]
    path.write_text(json.dumps(data))
    load(str(path))


def test_report_bytes_are_canonical():
    a = fileio.report_bytes({"b": 1, "a": [1.5, 2.0]})
    b = fileio.report_bytes({"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a.endswith(b"\n")


def test_report_bytes_reject_non_finite_numbers():
    with pytest.raises(ValueError):
        fileio.report_bytes({"residual": float("nan")})
