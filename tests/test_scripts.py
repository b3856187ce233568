"""Every script under scripts/ imports against the current package."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports_without_running(path):
    module = importlib.import_module(path.stem)
    assert callable(module.main)
