"""The tolerance policy: every threshold below 1e-3 is a named entry of the
tolerance table in ``check``, and multiples or floors of ``tol`` are not written
out by hand in the modules that judge residuals."""

import ast
import re
import tokenize
from pathlib import Path

import nogo_lab

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


def test_small_float_literals_live_in_the_opcore_table():
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
