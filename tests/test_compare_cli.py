"""How far ``tools/compare_cli.py`` says an output moved."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_cli.py"


@pytest.fixture(scope="module")
def compare_cli():
    spec = importlib.util.spec_from_file_location("compare_cli", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_floats_move_and_the_rest_is_text(compare_cli):
    gap = compare_cli.numeric_gap
    old = b'{"residual": 1.5e-11, "iterations": 7, "sha": "3e5f09", "x": [0.25, -2.0]}'
    assert gap(old, old) == 0.0
    new = old.replace(b"1.5e-11", b"1.5000000000000002e-11")
    assert gap(old, new) == pytest.approx(2 ** -52 / 1.5, rel=1e-3)
    # integers, digests and labels are text: any change there is not a gap
    for a, b in ((b"7", b"8"), (b"3e5f09", b"3e5f0a"), (b"residual", b"residue")):
        assert gap(old, old.replace(a, b)) is None
    assert gap(b"stage 0.5", b"stage 0.5 1.0") is None
    assert gap(b"v 1.0", b"v inf") == math.inf
    assert gap(b"nan,0.5", b"nan,0.5000000000000001") < 1e-15
    assert gap(None, b"") == 0.0
