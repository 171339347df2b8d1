"""tools/identity.py: where it reports that two text outputs first differ."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


@pytest.mark.parametrize("a, b, expected", [
    ("x = 1\ny = 2\n", "x = 1\ny = 3\n", "line 2, field 3: REV '2', this tree '3'"),
    ("1.0,2.0\n", "1.0,2.5\n", "line 1, field 2: REV '2.0', this tree '2.5'"),
    # one text is the other plus trailing lines: the first extra line is quoted
    ("x = 1\ny = 2\n", "x = 1\ny = 2\nz = 3\nw = 4\n",
     "2 lines in REV, 4 in this tree; line 3, first only in this tree: 'z = 3'"),
    ("x = 1\nmarking.0.unsafe = 0, 1\n", "x = 1\n",
     "2 lines in REV, 1 in this tree; line 2, first only in REV: 'marking.0.unsafe = 0, 1'"),
    ("x = 1\n", "x = 1\r\n", "line endings differ"),
])
def test_text_difference_names_the_first_difference(a, b, expected):
    assert identity._text_difference(a, b, "REV") == expected
