"""References that only the tests use.

`reference_syt` is the recursive SYT generator that
`enumeration.enumerate_syt` replaced, kept as the reference for its order:
the largest content goes into each removable corner in descending row
order, the rest of the shape is filled recursively, and every filling is
validated in full.  `brute_force_count` is a counting oracle independent of
the enumerator: it validates all n! placements.  `reference_path` walks the
inversion path's corner rule on `Tableau.content`, without the kernel's grid."""

from __future__ import annotations

import itertools
from typing import Iterator

from tabinv import LatticePath, Shape, ShapeError, Tableau, make_tableau, validate_filling
from tabinv.model import Cell


def corner_cells(s: Shape) -> set[Cell]:
    """Cells with no neighbor above or to the right (removable corners)."""
    return {
        (i, j)
        for (i, j) in s.cells()
        if (i + 1, j) not in s and (i, j + 1) not in s
    }


def remove_cell(s: Shape, cell: Cell) -> Shape:
    """s with one outer corner cell removed."""
    if cell not in s or cell not in corner_cells(s):
        raise ShapeError(f"cell {cell} is not a removable corner of {s}")
    i, j = cell
    outer = list(s.outer)
    outer[i - 1] -= 1
    if outer[-1] == 0:
        outer.pop()
    return Shape(tuple(outer), s.inner)


def brute_force_count(s: Shape) -> int:
    """The number of SYT of s: all n! placements filtered through validation.

    Only sensible for small n; used to certify the fast enumerator.
    """
    n = s.size
    cells = s.cells()
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        rows: list[list[int | None]] = [
            [None] * s.outer[i - 1] for i in range(1, s.n_rows + 1)
        ]
        for (i, j), v in zip(cells, perm):
            rows[i - 1][j - 1] = v
        if not validate_filling(s, rows):
            count += 1
    return count


def _assignments(s: Shape, k: int) -> Iterator[dict[Cell, int]]:
    if k == 0:
        yield {}
        return
    for corner in sorted(corner_cells(s), key=lambda c: -c[0]):
        for partial in _assignments(remove_cell(s, corner), k - 1):
            full = dict(partial)
            full[corner] = k
            yield full


def reference_syt(s: Shape) -> Iterator[Tableau]:
    for assignment in _assignments(s, s.size):
        rows: list[list[int | None]] = [[None] * p for p in s.outer]
        for (i, j), v in assignment.items():
            rows[i - 1][j - 1] = v
        yield make_tableau(s, rows)


def reference_path(t: Tableau, k: int, north_east: bool = False) -> LatticePath:
    """The SW inversion path of content k, or its NE path, one corner at a time.

    At the lattice point (x, y) the two cells that decide the step are
    (y+1, x), up and to the left, and (y, x+1), down and to the right; an
    absent cell counts as 0.  The SW path, from the lower-left corner of the
    cell of k to the origin, steps West when the first content is larger,
    else South.  The NE path, from the upper-right corner to the corner of
    the bounding box, steps East when the first is larger, else North.  So a
    double absence steps South, and North for NE.  At the border of its box
    a path has one way left."""

    def content(i: int, j: int) -> int:
        return t.content((i, j)) if (i, j) in t.shape else 0

    (r, s), = [cell for cell in t.shape.cells() if t.content(cell) == k]
    x, y = (s, r) if north_east else (s - 1, r - 1)
    start, steps = (x, y), []
    if north_east:
        width, height = t.shape.width, t.shape.n_rows
        while (x, y) != (width, height):
            if x < width and (y == height or content(y + 1, x) > content(y, x + 1)):
                steps.append("E")
                x += 1
            else:
                steps.append("N")
                y += 1
    else:
        while (x, y) != (0, 0):
            if x and (not y or content(y + 1, x) > content(y, x + 1)):
                steps.append("W")
                x -= 1
            else:
                steps.append("S")
                y -= 1
    return LatticePath(start, "".join(steps))
