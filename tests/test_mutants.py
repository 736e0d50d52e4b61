"""tools/mutants.py: every fault and digest switch it applies still finds its text."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_search_text_occurs_exactly_once():
    tool = _load_tool()
    assert len(tool.FAULTS) == 11
    for label, file, search, _ in [*tool.FAULTS, ("digest", *tool.DIGEST_ASSERT)]:
        assert (ROOT / file).read_text(encoding="utf-8").count(search) == 1, label


def test_each_deselected_digest_test_exists():
    for file, name in _load_tool().DIGEST_TESTS:
        assert (ROOT / file).read_text(encoding="utf-8").count(f"def {name}(") == 1, name


def test_substitute_rewrites_the_one_occurrence_and_refuses_any_other_count(tmp_path):
    tool = _load_tool()
    path = tmp_path / "m.py"
    path.write_text("a = 1\nb = 2\nb = 2\n", encoding="utf-8")
    assert tool.substitute(path, "a = 1", "a = 3") == "a = 1\nb = 2\nb = 2\n"
    assert path.read_text(encoding="utf-8") == "a = 3\nb = 2\nb = 2\n"
    for search, times in (("b = 2", 2), ("c = 4", 0)):
        with pytest.raises(ValueError, match=f"occurs {times} times"):
            tool.substitute(path, search, "x")
    assert path.read_text(encoding="utf-8") == "a = 3\nb = 2\nb = 2\n"
