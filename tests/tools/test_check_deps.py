"""Tests for the undeclared-import lint (``tools/check_deps.py``)."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def load_check_deps():
    spec = importlib.util.spec_from_file_location("check_deps", REPO / "tools" / "check_deps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_undeclared_import_fails_and_declared_tree_passes(tmp_path, capsys):
    check_deps = load_check_deps()
    (tmp_path / "module.py").write_text("import json\nimport numpy\nimport pandas\n")
    assert check_deps.main([str(tmp_path)]) != 0
    stderr = capsys.readouterr().err
    assert "'pandas'" in stderr
    assert "'numpy'" not in stderr and "'json'" not in stderr

    assert check_deps.main([str(REPO / "src" / "repro")]) == 0
