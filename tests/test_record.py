"""Plain records (`modcore.record`) and what importing the library loads."""

import subprocess
import sys
from pathlib import Path

import pytest

import modcore
from modcore.record import Record


class Point(Record):
    x: int
    y: int
    label: str = ""

    def norm1(self):
        return abs(self.x) + abs(self.y)


class Pair(Record):
    x: int
    y: int


def test_record_fields_are_its_annotations_in_order():
    assert Point._fields == ("x", "y", "label") and Pair._fields == ("x", "y")
    assert Record._fields == ()


def test_record_takes_positional_keyword_and_default_fields():
    p = Point(1, -2)
    assert (p.x, p.y, p.label, p.norm1()) == (1, -2, "", 3)
    assert Point(1, -2, "a") == Point(label="a", y=-2, x=1) == Point(1, label="a", y=-2)
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label='')"


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1, 2, "a", 4), {}, "takes 3 fields, got 4 positional"),
        ((1, 2), {"z": 3}, "has no field 'z'"),
        ((1, 2), {"x": 3}, "got field 'x' twice"),
        ((1,), {"label": "a"}, "missing field\\(s\\) y"),
        ((), {}, "missing field\\(s\\) x, y"),
    ],
)
def test_record_rejects_unknown_repeated_and_missing_fields(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_records_are_equal_by_type_and_fields():
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(1, 3)
    assert Point(1, 2) != Point(1, 2, "a")
    assert Pair(1, 2) != Point(1, 2) and Pair(1, 2) != (1, 2)
    with pytest.raises(TypeError):
        hash(Pair(1, 2))


def test_importing_the_session_and_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh isolated interpreter, so nothing the tests imported counts;
    # a module that site loads before modcore is not modcore's
    src = str(Path(modcore.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import modcore.session, modcore.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
