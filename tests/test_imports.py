"""Each command loads only its own layer of the package, rejected input
loads no numpy, and the front end loads no module that only an internal
error, a bundled name or generated record code would need.

Every command runs in a fresh interpreter, so nothing another test imported
counts.  The module needs only the package, so it also runs without pytest:
``python tests/test_imports.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from importlib import resources

import nogo_lab

# argv -> modules the command must not load
NOT_LOADED = {
    ("feasibility", "chsh"): ("nogo_lab.nogo", "nogo_lab.hvmodel"),
    ("verify-commutation", "--dim", "4", "--trials", "2"): ("nogo_lab.simplex", "fractions"),
    ("check-model", "commuting.model"): ("nogo_lab.simplex",),
}
PROBE = "import sys; from nogo_lab.cli import main; print(main(sys.argv[1:]), *sorted(sys.modules))"
# The console script in an interpreter where numpy cannot be imported.
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from nogo_lab.cli import run; run()"

# One field of commuting.model broken: name -> (field path, raw JSON)
BAD_MODELS = {
    "weights-string": (("weights", 1), '"a"'),
    "value-row-null": (("values", "O1", 2), "null"),
    "state-non-finite": (("state", 0, 0), "[1e999, 0.0]"),
    "dim-float": (("dim",), "3.0"),
    "dim-string": (("dim",), '"3"'),
    "state-2x2": (("state",), "[[0.5, 0.0], [0.0, 0.5]]"),
    "model-schema-banana": (("schemaVersion",), '"banana"'),
}
# One field of chsh.scenario broken, as above.
BAD_SCENARIOS = {
    "item-2x2": (("items", "A1", "matrix"), "[[1, 0], [0, -1]]"),
    "scenario-state-2x2": (("state",), "[[0.5, 0.0], [0.0, 0.5]]"),
    "unknown-label": (("contexts", 0, "labels"), '["A1", "Z9"]'),
    "name-number": (("name",), "5"),
    "schema-99": (("schemaVersion",), "99"),
    "schema-banana": (("schemaVersion",), '"banana"'),
}
# Malformed input -> the whole of its stderr ({} is the input's path).
MALFORMED = {
    ("feasibility", "{truncated}"): "{}: invalid JSON at line 1, column 31: "
    "Expecting property name enclosed in double quotes",
    ("feasibility", "chsh", "--state", "bell-17"): "unknown state 'bell-17': "
    "use singlet, maximally-mixed, ghz, or a file path",
    ("feasibility", "chsh", "--angles", "0,90,45"): "--angles expects four "
    "comma-separated degrees: a,a',b,b'",
    ("feasibility", "chsh", "--angles", "nan,0,0,0"): "--angles must be finite degrees, "
    "got nan,0,0,0",
    ("verify-conditioning", "--dim", "2"): "conditioning uniqueness is only meaningful "
    "for dimension >= 3 (lattice measures are trace functionals there); got dimension 2",
    ("check-model", "{weights-string}"): "{}.weights: expected 3 finite numbers",
    ("check-model", "{value-row-null}"): "{}.values[O1]: expected 3 finite numbers",
    ("check-model", "{state-non-finite}"): "{}.state: matrix entry must be a finite number "
    "or [re, im], got [inf, 0.0]",
    ("check-model", "{dim-float}"): "{}: dim must be a positive integer",
    ("check-model", "{dim-string}"): "{}: dim must be a positive integer",
    ("check-model", "{state-2x2}"): "{}.state: wrong dimension",
    ("feasibility", "{item-2x2}"): "{}.items[A1].matrix: wrong dimension",
    ("feasibility", "{scenario-state-2x2}"): "{}.state: wrong dimension",
    ("feasibility", "{unknown-label}"): "{}.contexts[0].labels: unknown label 'Z9'",
    ("feasibility", "{name-number}"): "{}.name: expected a string",
    ("feasibility", "{schema-99}"): "{}.schemaVersion: must be 1, got 99",
    ("feasibility", "{schema-banana}"): "{}.schemaVersion: must be 1, got 'banana'",
    ("check-model", "{model-schema-banana}"): "{}.schemaVersion: must be 1, got 'banana'",
}
# Modules that only an internal error (traceback), a bundled name
# (importlib.resources) or generated record code (dataclasses, inspect) need:
# importing the front end loads none of them.
DEFERRED = ("dataclasses", "inspect", "traceback", "importlib.resources")


def _python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


def probe(argv) -> tuple:
    """(main's exit code, the modules it loaded, its stderr) in a fresh
    interpreter."""
    proc = _python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded), proc.stderr


def malformed_inputs(tmp: str) -> dict:
    """Input name -> path: the truncated scenario, the bad models and the
    bad scenarios."""
    paths = {"truncated": os.path.join(tmp, "truncated.scenario")}
    with open(paths["truncated"], "w", encoding="utf-8") as fh:
        fh.write('{"kind": "scenario", "dim": 4,')
    for fixture, bad in (("commuting.model", BAD_MODELS), ("chsh.scenario", BAD_SCENARIOS)):
        text = (resources.files("nogo_lab") / "scenarios" / fixture).read_text()
        for name, ((*outer, last), raw) in bad.items():
            data = json.loads(text)
            target = data
            for key in outer:
                target = target[key]
            target[last] = "<raw>"
            paths[name] = os.path.join(tmp, name + os.path.splitext(fixture)[1])
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data).replace('"<raw>"', raw))
    return paths


def test_each_command_loads_only_its_own_layer():
    for argv, banned in NOT_LOADED.items():
        with tempfile.TemporaryDirectory() as tmp:
            _, loaded, _ = probe([*argv, "--out", os.path.join(tmp, "report")])
        assert argv[0] != "feasibility" or "nogo_lab.feasibility" in loaded  # the probe ran
        assert not loaded & set(banned), (argv, sorted(loaded & set(banned)))


def test_importing_the_front_end_loads_no_numpy():
    proc = _python("-c", "import sys, nogo_lab.cli; print('numpy' in sys.modules)")
    assert proc.stdout.split() == ["False"], proc.stderr


def test_importing_the_front_end_defers_what_only_some_paths_need():
    """In a clean interpreter (no site module, whose ``.pth`` hooks may
    import any of these), with only the package's source on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nogo_lab.__file__)))
    probe = f"import sys; sys.path.insert(0, {src!r}); import nogo_lab.cli; print(*sys.modules)"
    proc = _python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert not set(proc.stdout.split()) & set(DEFERRED), proc.stdout


def test_malformed_input_exits_2_with_its_message_and_no_numpy():
    with tempfile.TemporaryDirectory() as tmp:
        paths = malformed_inputs(tmp)
        for argv, message in MALFORMED.items():
            argv = [a.format(**paths) for a in argv]
            path = next((a for a in argv if a.startswith(tmp)), None)
            code, loaded, err = probe(argv)
            assert (code, err) == (2, f"nogo-lab: error: {message.format(path)}\n"), argv
            assert "numpy" not in loaded, argv


def test_a_failed_numeric_import_is_an_internal_error():
    """Exit 3, not the 'infeasible' 1, when numpy cannot be imported; a bad
    flag still exits 2, as it is checked first."""
    proc = _python("-c", NO_NUMPY, "feasibility", "chsh")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("nogo-lab: internal error:\nTraceback")
    assert "ModuleNotFoundError" in proc.stderr
    proc = _python("-c", NO_NUMPY, "feasibility", "chsh", "--angles", "0,90,45")
    assert proc.returncode == 2, proc.stderr


def test_the_package_names_resolve_on_first_use():
    proc = _python("-c", "import nogo_lab; print(nogo_lab.TOL, nogo_lab.Density.__name__)")
    assert proc.stdout.split() == ["1e-09", "Density"], proc.stderr


if __name__ == "__main__":
    test_each_command_loads_only_its_own_layer()
    test_importing_the_front_end_loads_no_numpy()
    test_importing_the_front_end_defers_what_only_some_paths_need()
    test_malformed_input_exits_2_with_its_message_and_no_numpy()
    test_a_failed_numeric_import_is_an_internal_error()
    test_the_package_names_resolve_on_first_use()
    print("import graph: no command loads another command's layer; rejected input loads no numpy;"
          " the front end defers " + ", ".join(DEFERRED))
