"""References that only the tests use.

`reference_syt` is the recursive SYT generator that
`enumeration.enumerate_syt` replaced, kept as the reference for its order:
the largest content goes into each removable corner in descending row
order, the rest of the shape is filled recursively, and every filling is
validated in full.  `is_syt` decides from the definition alone, with no
check of tabinv, whether rows are an SYT of a shape.  `brute_force_count` is
a counting oracle independent of the enumerator and of tabinv's checks: it
filters all n! placements through `is_syt`.  `reference_path` walks the
inversion path's corner rule and stop rule on `Tableau.content`, without
the kernel's grid.
`tableau_from_rows` is the tests' shorthand for a tableau, and
`rotate_complement_into` their NE reference: a 180-degree turn with its own
cell formula on `Tableau.content`, independent of `model._turned`."""

from __future__ import annotations

import itertools
from typing import Iterator

from tabinv import LatticePath, Shape, ShapeError, Tableau
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


def is_syt(shape: Shape, rows) -> bool:
    """Whether rows, bottom row first, are a standard Young tableau of shape,
    from the definition: rows, and each row, is a list or a tuple; the rows
    fit the shape exactly, with None on the inner cells and nowhere else;
    the other entries are the ints 1..n (not bools), each once; and entries
    increase along each row and up each column."""
    sequences = (list, tuple)
    if not isinstance(rows, sequences) or not all(isinstance(row, sequences) for row in rows):
        return False
    inner = shape.inner + (0,) * (len(shape.outer) - len(shape.inner))
    if len(rows) != len(shape.outer):
        return False
    entries: list = []
    for row, p, q in zip(rows, shape.outer, inner):
        if len(row) != p or any(v is not None for v in row[:q]) or any(type(v) is not int for v in row[q:]):
            return False
        entries += row[q:]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False

    def entry(i: int, j: int):
        """The entry of row i, column j (0-based); None off the rows."""
        return rows[i][j] if i < len(rows) and j < len(rows[i]) else None

    return all(
        neighbour is None or v < neighbour
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v is not None
        for neighbour in (entry(i, j + 1), entry(i + 1, j))
    )


def brute_force_count(s: Shape) -> int:
    """The number of SYT of s: all n! placements filtered through `is_syt`.

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
        if is_syt(s, rows):
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
        yield Tableau(s, rows)


def reference_path(t: Tableau, k: int, north_east: bool = False) -> LatticePath:
    """The SW inversion path of content k, or its NE path, one corner at a time.

    At the lattice point (x, y) the two cells that decide the step are
    (y+1, x), up and to the left, and (y, x+1), down and to the right.  The
    SW path, from the lower-left corner of the cell of k, steps West when
    the first content is larger, else South; the NE path, from the
    upper-right corner, steps East when the first is larger, else North.
    Either stops at the first point where one of the two cells is absent,
    the border of the bounding box included.  Every cell weakly south-west
    of that point (north-east, for NE) is inner, so the rest decides no
    content: the SW path runs South to the x-axis and then West to the
    origin, the NE path North to the top of the box and then East to its
    upper-right corner.  The paper's abstract (PAPER.md) does not fix that
    tail."""
    shape = t.shape
    (r, s), = [cell for cell in shape.cells() if t.content(cell) == k]
    x, y = (s, r) if north_east else (s - 1, r - 1)
    start, steps = (x, y), []
    while (y + 1, x) in shape and (y, x + 1) in shape:
        first_larger = t.content((y + 1, x)) > t.content((y, x + 1))
        if north_east:
            steps.append("E" if first_larger else "N")
            x, y = (x + 1, y) if first_larger else (x, y + 1)
        else:
            steps.append("W" if first_larger else "S")
            x, y = (x - 1, y) if first_larger else (x, y - 1)
    if north_east:
        steps.append("N" * (shape.n_rows - y) + "E" * (shape.width - x))
    else:
        steps.append("S" * y + "W" * x)
    return LatticePath(start, "".join(steps))


def tableau_from_rows(rows: list[list[int]], inner: tuple[int, ...] = ()) -> Tableau:
    """Convenience constructor from plain bottom-up rows of a straight shape,
    or rows of cells only together with an explicit inner partition."""
    outer = tuple(len(r) + (inner[i] if i < len(inner) else 0) for i, r in enumerate(rows))
    shape = Shape(outer, inner)
    full: list[list[int | None]] = []
    for i, r in enumerate(rows, start=1):
        full.append([None] * shape.inner_at(i) + list(r))
    return Tableau(shape, full)


def rotate_complement_into(t: Tableau, shape: Shape) -> Tableau:
    """Rotate and complement t as rotate_complement does, onto `shape`, inside
    the larger of the two bounding boxes.

    rotate_complement_into(rotate_complement(t), t.shape) == t for every t.
    """
    big_r = max(t.shape.n_rows, shape.n_rows)
    big_c = max(t.shape.width, shape.width)
    rows: list[list[int | None]] = [
        [None] * shape.outer[i - 1] for i in range(1, shape.n_rows + 1)
    ]
    for (i, j) in t.shape.cells():
        rows[big_r - i][big_c - j] = t.n + 1 - t.content((i, j))
    return Tableau(shape, rows)
