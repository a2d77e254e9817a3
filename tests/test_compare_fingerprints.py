"""``tools/compare_fingerprints.py`` names the fingerprint entries that moved."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_fingerprints.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_kind_of_entry_is_named(tool):
    op = {"exact": [True, 7], "num": [1.5e-11, 2.0], "digest": "ab"}
    assert tool.moved_entries(op, dict(op)) == []
    moved = tool.moved_entries(op, {"exact": [True, 8], "num": [1.5e-11, 3.0],
                                    "digest": "ac"})
    assert moved[0] == "exact [True, 7] -> [True, 8]"
    assert moved[1] == "num moved by 0.333 relative"
    assert moved[2] == "digest moved"
    # a sign of zero and a NaN against itself
    assert tool.moved_entries({**op, "num": [0.0]}, {**op, "num": [-0.0]}) == [
        "num moved by 0 relative"]
    assert tool.moved_entries({**op, "num": [float("nan")]},
                              {**op, "num": [float("nan")]}) == []
    files = {"exact": [0], "num": [], "digest": {"report.json": "1", "<stdout>": "2"}}
    other = {**files, "digest": {"report.json": "1", "<stdout>": "3"}}
    assert tool.moved_entries(files, other) == ["digest moved: <stdout>"]
    assert tool.moved_entries(None, op) == ["missing in the parent"]


def test_a_tree_against_itself_moves_nothing(tool):
    lines = []
    compared, moved = tool.compare(ROOT, ROOT, ["cli_demos"], [0], echo=lines.append)
    assert compared == 10  # the workload's ten commands
    assert (moved, lines) == (0, [])
