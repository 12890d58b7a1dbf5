"""The tolerance policy: every threshold below 1e-3 is a named entry of the
tolerance table in ``check``, the table and its floor live there alone, and
multiples or floors of ``tol`` are not written out by hand in the modules
that judge residuals."""

import ast
import re
import tokenize
from pathlib import Path

import nogo_lab
from nogo_lab import check, opcore

SRC = Path(nogo_lab.__file__).parent
TABLE_ENTRY = re.compile(r"[A-Z][A-Z_]* = ")
HAND_WRITTEN = re.compile(r"1e-[0-9]+|[0-9]+ \* tol|max\(tol, [^)]*\)|np\.sqrt\(tol\)")
JUDGING_MODULES = ("cli", "feasibility", "fileio", "hvmodel", "nogo", "quantum")


def _small_float_literals(path: Path):
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
                continue
            if 0 < ast.literal_eval(tok.string) < 1e-3:
                yield tok.start[0], tok.line


def test_small_float_literals_live_in_the_check_table():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in _small_float_literals(path)
        if not (path.name == "check.py" and TABLE_ENTRY.match(line))
    ]
    assert found == []


def test_no_hand_written_tolerances_in_judging_modules():
    found = [
        f"{name}.py:{lineno}: {line.strip()}"
        for name in JUDGING_MODULES
        for lineno, line in enumerate((SRC / f"{name}.py").read_text().splitlines(), 1)
        if HAND_WRITTEN.search(line)
    ]
    assert found == []


def _table_names() -> set:
    """The table's entries (``check``'s module-level float constants) and ``floored``."""
    body = ast.parse((SRC / "check.py").read_text()).body
    return {target.id for node in body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
            for target in node.targets} | {"floored"}


def test_the_table_and_its_floor_have_one_home():
    """``check`` defines them; ``opcore`` binds none, and no module imports
    one from ``opcore`` or reads it as ``opcore.<name>``."""
    names = _table_names()
    assert {"TOL", "CLUSTER_GAP", "PIVOT_TOL", "floored"} <= names
    assert all(hasattr(check, name) for name in names)
    assert sorted(name for name in names if hasattr(opcore, name)) == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "opcore":
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name in names]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and isinstance(node.value, ast.Name) and node.value.id == "opcore"):
                found.append(f"{path.name}:{node.lineno}: opcore.{node.attr}")
    assert found == []
