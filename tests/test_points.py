"""Every point of bench/points.py, once at the smallest size of its series:
each must hold its known outcome."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import points  # noqa: E402


@pytest.mark.parametrize("series, sizes", points.SERIES,
                         ids=[f"{series.__name__}{sizes[0]}" for series, sizes in points.SERIES])
def test_each_point_holds_at_its_smallest_size(series, sizes, capsys):
    for label, fn, check, *rest in series(sizes[0]):
        assert points.point(label, fn, check, 1, *rest[1:]), label
        assert capsys.readouterr().out.startswith(f"{label}: ")
