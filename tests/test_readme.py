"""The README's python example prints what its comments say.

Every ``print(...)  # text`` line of the README's python block must print
exactly ``text``.  The module needs only numpy and the package, so it also
runs without pytest: ``python tests/test_readme.py``.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_its_comments():
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


if __name__ == "__main__":
    test_readme_example_prints_its_comments()
    print("README example: every printed line matches its comment")
