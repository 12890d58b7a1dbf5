"""Each command loads only its own layer of the package.

Every command runs in a fresh interpreter, so nothing another test imported
counts.  The module needs only the package, so it also runs without pytest:
``python tests/test_imports.py``.
"""

import os
import subprocess
import sys
import tempfile

# argv -> modules the command must not load
NOT_LOADED = {
    ("feasibility", "chsh"): ("nogo_lab.nogo", "nogo_lab.hvmodel"),
    ("verify-commutation", "--dim", "4", "--trials", "2"): ("nogo_lab.simplex", "fractions"),
    ("check-model", "commuting.model"): ("nogo_lab.simplex",),
}
PROBE = "import sys; from nogo_lab.cli import main; main(sys.argv[1:]); print(*sorted(sys.modules))"


def loaded_modules(argv) -> set:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *argv, "--out", out], capture_output=True, text=True, check=True
        )
    return set(proc.stdout.split())


def test_each_command_loads_only_its_own_layer():
    for argv, banned in NOT_LOADED.items():
        loaded = loaded_modules(argv)
        assert argv[0] != "feasibility" or "nogo_lab.feasibility" in loaded  # the probe ran
        assert not loaded & set(banned), (argv, sorted(loaded & set(banned)))


if __name__ == "__main__":
    test_each_command_loads_only_its_own_layer()
    print("import graph: no command loads another command's layer")
