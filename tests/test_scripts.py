"""The reproduction scripts under scripts/ run end to end at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("calibrate_default_counts", ["--samples", "2000"]),
    ("reproduce_rejection_table", ["--shots", "2000", "--threads", "1"]),
    ("run_spam_error_budget", ["--shots", "2000", "--threads", "1"]),
])
def test_script_runs(capsys, name, argv):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out.strip()
