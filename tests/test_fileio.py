import json

import numpy as np
import pytest

from nogo_lab import fileio
from nogo_lab.errors import FormatError
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


def test_report_bytes_are_canonical():
    a = fileio.report_bytes({"b": 1, "a": [1.5, 2.0]})
    b = fileio.report_bytes({"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a.endswith(b"\n")


def test_report_bytes_reject_non_finite_numbers():
    with pytest.raises(ValueError):
        fileio.report_bytes({"residual": float("nan")})
