"""Inversion paths, cycling maps and the tableau inversion statistic.

The forward map cycles contents inside blocks determined by a monotone
South-West lattice path; the composite over all pivots sends the inversion
statistic to the major index.  A North-East variant plays the same role for
the co-major index; it is the South-West machinery conjugated by
`rotate_complement`.

Every map runs on one mutable `_Grid`: a zero-padded array of contents plus
the cell of each content.  A path is kept as the height at which it crosses
each column, so a cell is below a path exactly when its row is at most the
height of its column.  A grid validates its input tableau in full once;
after that each pivot step checks only what it wrote (`_Grid.check`), which
on a standard tableau is equivalent to validating the whole result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .model import (
    Cell,
    Shape,
    Tableau,
    TableauError,
    rotate_complement,
    rotate_complement_into,
    validate_filling,
)

BELOW = "below"  # weakly SE of a path
ABOVE = "above"  # weakly NW of a path


class AlgorithmError(RuntimeError):
    """Internal consistency failure; signals a bug, never bad user input."""


@dataclass(frozen=True)
class LatticePath:
    """A monotone unit-step path; start is a lattice point (x, y)."""

    start: tuple[int, int]
    steps: str  # "S"/"W" for SW paths, "N"/"E" for NE paths


@dataclass(frozen=True)
class BlockPartition:
    """Cycling blocks for one pivot; cells listed in increasing content order."""

    k: int
    anchor_side: str
    blocks: tuple[tuple[Cell, ...], ...]

    def content_blocks(self, t: Tableau) -> list[list[int]]:
        return [[t.content(c) for c in block] for block in self.blocks]


class _SwSides:
    """Side classification against a (possibly partial) SW path.

    Queries are O(1) after recording the height of the West step crossing
    each column.  For a partial path, cells strictly SW of the current
    endpoint are undetermined and classify as None.
    """

    def __init__(self, start: tuple[int, int], steps: str):
        self.sx, self.sy = start
        x, y = start
        heights: dict[int, int] = {}
        for st in steps:
            if st == "W":
                heights[x] = y
                x -= 1
            elif st == "S":
                y -= 1
            else:
                raise AlgorithmError(f"bad SW step {st!r}")
        self.heights = heights
        self.end = (x, y)

    def side(self, cell: Cell) -> str | None:
        i, j = cell
        if j > self.sx:
            return BELOW if i <= self.sy + 1 else ABOVE
        if j in self.heights:
            return BELOW if self.heights[j] >= i else ABOVE
        ex, ey = self.end
        if j <= ex and i <= ey:
            return None
        return ABOVE


def classify_side(path: LatticePath, cell: Cell) -> str:
    """BELOW (weakly SE) or ABOVE (weakly NW) for a complete SW path."""
    side = _SwSides(path.start, path.steps).side(cell)
    if side is None:
        raise AlgorithmError(f"cell {cell} undetermined against complete path {path}")
    return side


def _lattice_path(cell: Cell, h: list[int]) -> LatticePath:
    """The SW path from the lower-left corner of cell with column heights h."""
    i, j = cell
    y, steps = i - 1, []
    for x in range(j - 1, 0, -1):
        steps.append("S" * (y - h[x]) + "W")
        y = h[x]
    steps.append("S" * y)
    return LatticePath((j - 1, i - 1), "".join(steps))


def _blocks(pos: list[Cell], h: list[int], k: int) -> tuple[bool, list[list[Cell]]]:
    """Whether the cell of 1 is below the path, and the cycling blocks of the
    contents below k: scanned in increasing content order, a content on the
    side of 1 opens a block, one on the other side extends the current one."""
    i, j = pos[1]
    anchor = i <= h[j]
    blocks: list[list[Cell]] = []
    for cell in pos[1:k]:
        if (cell[0] <= h[cell[1]]) == anchor:
            blocks.append([cell])
        else:
            blocks[-1].append(cell)
    return anchor, blocks


class _Grid:
    """The working copy of a standard tableau that the cycling maps mutate.

    g[i][j] is the content of cell (i, j) and 0 outside the shape, with a
    border of zeros on every side; pos[c] is the cell holding content c.
    """

    def __init__(self, t: Tableau):
        violations = validate_filling(t.shape, t.rows)
        if violations:
            raise TableauError(violations)
        self.shape = t.shape
        self.width = t.shape.width
        self.g = g = [[0] * (self.width + 2) for _ in range(t.shape.n_rows + 2)]
        self.pos = pos = [(0, 0)] * (t.n + 1)
        for i, row in enumerate(t.rows, start=1):
            for j, v in enumerate(row, start=1):
                if v is not None:
                    g[i][j] = v
                    pos[v] = (i, j)

    def tableau(self) -> Tableau:
        s = self.shape
        rows = (
            (None,) * s.inner_at(i) + tuple(self.g[i][s.inner_at(i) + 1 : s.outer[i - 1] + 1])
            for i in range(1, s.n_rows + 1)
        )
        return Tableau(s, tuple(rows))

    def heights(self, k: int, absent: int = 0) -> list[int]:
        """Column heights of the SW path from the lower-left corner of the
        cell of k.  At each interior corner the path steps West when the
        content to the left beats the content below, else South; absent
        cells count as `absent`."""
        g = self.g
        r, s = self.pos[k]
        h = [r] * (self.width + 1)
        x, y = s - 1, r - 1
        while x:
            if y and (g[y + 1][x] or absent) <= (g[y][x + 1] or absent):
                y -= 1
            else:
                h[x] = y
                x -= 1
        return h

    def rotate(self, blocks: list[list[Cell]], touched: list[tuple[Cell, int]]) -> None:
        """Cycle each block: its first cell takes the content of its last
        cell, every other cell the content of the cell before it.  Each
        rewritten cell is appended to touched with its old content."""
        g = self.g
        for block in blocks:
            if len(block) > 1:
                old = [g[i][j] for i, j in block]
                for (i, j), v in zip(block, old[-1:] + old[:-1]):
                    g[i][j] = v
                touched.extend(zip(block, old))

    def check(self, touched: list[tuple[Cell, int]], context: str) -> None:
        """Check a step that rewrote the touched cells, then update pos.

        The new contents must be a permutation of the old ones, and each
        touched cell must be smaller than its right and upper neighbours
        and larger than its left and lower ones.  No other pair of adjacent
        cells changed, so if the grid was standard before the step this
        passes exactly when it is standard after it.
        """
        g = self.g
        new = [g[i][j] for (i, j), _ in touched]
        ok = sorted(new) == sorted(old for _, old in touched) and not any(
            0 < g[i][j - 1] >= v or 0 < g[i - 1][j] >= v or v >= g[i][j + 1] > 0 or v >= g[i + 1][j] > 0
            for ((i, j), _), v in zip(touched, new)
        )
        if not ok:
            violations = validate_filling(self.shape, self.tableau().rows)
            raise AlgorithmError(f"{context} produced an invalid tableau: {violations}")
        for (cell, _), v in zip(touched, new):
            self.pos[v] = cell

    def psi_step(self, k: int, absent: int = 0) -> tuple[list[int], list[list[Cell]]]:
        """Forward cycling for pivot k >= 3 along its inversion path (with
        absent cells counting as `absent`); returns the path's heights and
        the blocks."""
        h = self.heights(k, absent)
        _, blocks = _blocks(self.pos, h, k)
        touched: list[tuple[Cell, int]] = []
        self.rotate(blocks, touched)
        self.check(touched, f"psi_{k}")
        return h, blocks

    def phi_step(self, k: int) -> tuple[list[int], list[list[Cell]]]:
        """Reverse cycling for pivot k >= 3; returns the reconstructed path's
        heights and the blocks in the order they were found.

        The path grows from the cell of k one step at a time.  Before each
        step every block the partial path already determines is consumed:
        scanning down from the largest unused content, a block is a content
        on the anchor side followed by the maximal run below it on the other
        side.  Its contents rotate one place the other way from `psi_step`.
        """
        g, pos = self.g, self.pos
        r, s = pos[k]
        anchor = r > pos[k - 1][0]  # k-1 is a descent: anchored below the path
        h = [r] * (self.width + 1)
        x, y = s - 1, r - 1
        low = k  # contents low..k-1 have joined a block
        blocks: list[list[Cell]] = []
        touched: list[tuple[Cell, int]] = []

        def below(c: int) -> bool | None:
            i, j = pos[c]
            if j > x:
                return i <= h[j]
            return None if i <= y else False

        def consume() -> None:
            nonlocal low
            found = []
            c = low - 1
            while c >= 1:
                side = below(c)
                if side is None:
                    break
                if side != anchor:
                    raise AlgorithmError(f"phi_{k}: top unused content {c} on the non-anchor side")
                c2 = c - 1
                while c2 >= 1 and below(c2) == (not anchor):
                    c2 -= 1
                if c2 >= 1 and below(c2) is None:
                    break  # block not simple yet; retry after the path grows
                found.append([pos[d] for d in range(c, c2, -1)])
                low, c = c2 + 1, c2
            self.rotate(found, touched)
            blocks.extend(found)

        while x and y:
            consume()
            b, left = g[y][x + 1], g[y + 1][x]
            if not (left and b):
                west = bool(left)  # forced for absent neighbours, mirroring the forward rule
            elif anchor:
                west = not (low <= b < k and b > left)
            else:
                west = low <= left < k and left > b
            if west:
                h[x] = y
                x -= 1
            else:
                y -= 1
        h[1 : x + 1] = [0] * x
        x = 0
        consume()
        if low > 1:
            raise AlgorithmError(f"phi_{k}: contents {list(range(1, low))} never joined a simple block")
        self.check(touched, f"phi_{k}")
        return h, blocks


def _check_pivot(t: Tableau, k: int, what: str = "pivot") -> None:
    if not 1 <= k <= t.n:
        raise ValueError(f"{what} {k} outside 1..{t.n}")


def inversion_path(t: Tableau, k: int) -> LatticePath:
    """The SW lattice path from the lower-left corner of the cell holding k.

    At each interior corner the path steps toward the larger of the two
    neighbor contents below and to the left; absent cells count as 0 and a
    double absence steps South.  The path ends at the origin.
    """
    _check_pivot(t, k, "content")
    grid = _Grid(t)
    return _lattice_path(grid.pos[k], grid.heights(k))


def forward_blocks(t: Tableau, k: int, path: LatticePath) -> BlockPartition:
    """Partition of the contents below k into cycling blocks.

    Scanned in increasing content order: a content on the anchor side (the
    side of the cell holding 1) opens a block, one on the other side extends
    the current block.
    """
    pos = t.positions()
    sides = _SwSides(path.start, path.steps)
    if path.start != (pos[k][1] - 1, pos[k][0] - 1) or sides.end != (0, 0):
        raise AlgorithmError(f"path {path} does not run from the cell of {k} to the origin")
    h = [path.start[1] + 1] * (t.shape.width + 1)  # columns east of the start
    for x, y in sides.heights.items():
        h[x] = y
    anchor, blocks = _blocks(pos, h, k)
    return BlockPartition(k, BELOW if anchor else ABOVE, tuple(map(tuple, blocks)))


@dataclass(frozen=True)
class MapStage:
    k: int
    path: LatticePath
    blocks: tuple[tuple[Cell, ...], ...]
    result: Tableau


def _cycled(t: Tableau, step, pivots) -> Tableau:
    grid = _Grid(t)
    for k in pivots:
        step(grid, k)
    return grid.tableau()


def psi_k(t: Tableau, k: int) -> Tableau:
    """One forward cycling step for pivot k (identity for k <= 2)."""
    _check_pivot(t, k)
    return _cycled(t, _Grid.psi_step, [k] if k > 2 else [])


def psi(t: Tableau) -> Tableau:
    """Composite forward map, pivots n down to 3; sends Inv to maj."""
    return _cycled(t, _Grid.psi_step, range(t.n, 2, -1))


def psi_trace(t: Tableau) -> tuple[Tableau, list[MapStage]]:
    return map_trace(t)[:2]


def phi_k(s: Tableau, k: int) -> Tableau:
    """Inverse of psi_k, by reverse cycling along the reconstructed path."""
    _check_pivot(s, k)
    return _cycled(s, _Grid.phi_step, [k] if k > 2 else [])


def phi(s: Tableau) -> Tableau:
    """Inverse composite map, pivots 3 up to n."""
    return _cycled(s, _Grid.phi_step, range(3, s.n + 1))


def phi_trace(s: Tableau) -> tuple[Tableau, list[MapStage]]:
    return map_trace(s, forward=False)[:2]


@dataclass
class InversionPathSet:
    """One path per cell, except one exempt cell, and the ordered pairs
    (path cell, counted cell) of the statistic they define."""

    paths: dict[Cell, LatticePath]
    exempt: Cell
    pairs: set[tuple[Cell, Cell]]


def _anchored_heights(t: Tableau, absent: int = 0) -> list[tuple[Cell, list[int]]]:
    """(start cell, column heights) of every path that anchors inversion
    pairs: the inversion paths of pivots n down to 2, each taken just before
    its own cycling step of the forward cascade, then the trivial path at
    the lower-left corner of the exempt cell.

    Once pivot k has cycled, content k never moves again, so the path start
    cells are distinct and the exempt cell is where 1 ends up.
    """
    grid = _Grid(t)
    paths = [(grid.pos[k], grid.psi_step(k, absent)[0]) for k in range(t.n, 2, -1)]
    return paths + _end_paths(grid, absent)


def _end_paths(grid: _Grid, absent: int = 0) -> list[tuple[Cell, list[int]]]:
    """The paths of pivot 2 and of the exempt cell, on a grid at the output
    end of the forward cascade."""
    n = len(grid.pos) - 1
    paths = [(grid.pos[2], grid.heights(2, absent))] if n >= 2 else []
    if n:
        i, j = grid.pos[1]
        paths.append(((i, j), [0] * j + [i] * (grid.width + 1 - j)))
    return paths


def _pairs(t: Tableau, paths: list[tuple[Cell, list[int]]]) -> Iterator[tuple[Cell, Cell]]:
    """(path cell, smaller cell) for each cell whose content in t is below
    that of the path's start cell and that lies below the path."""
    pos = t.positions()
    for cell, h in paths:
        for small in pos[1 : t.content(cell)]:
            if small[0] <= h[small[1]]:
                yield cell, small


def inversion_path_set(t: Tableau) -> InversionPathSet:
    """The n-1 inversion paths, recorded along the forward cascade."""
    paths = _anchored_heights(t)
    return InversionPathSet(
        {cell: _lattice_path(cell, h) for cell, h in paths[:-1]},
        paths[-1][0],
        set(_pairs(t, paths)),
    )


def inversion_pairs(t: Tableau) -> set[tuple[Cell, Cell]]:
    """Ordered cell pairs whose smaller content lies below the larger cell's
    inversion path.

    The exempt cell anchors pairs through the trivial (empty) path at its
    own lower-left corner, so every smaller content weakly south-east of it
    counts.  On a straight shape the exempt cell is (1, 1), which holds 1
    and therefore anchors nothing; on skew shapes the rule is what makes
    the statistic match the major index of the composite map.
    """
    return set(_pairs(t, _anchored_heights(t)))


def inv_statistic(t: Tableau) -> int:
    return sum(1 for _ in _pairs(t, _anchored_heights(t)))


def map_trace(t: Tableau, forward: bool = True) -> tuple[Tableau, list[MapStage], int]:
    """psi(t), or phi(t) when not forward, with every pivot stage, and the
    inversion statistic of the tableau at psi's input end (t, or phi(t)),
    counted from the paths that same cascade records.

    phi_k reconstructs on its input exactly the path that psi_k takes on
    phi_k's output, so the phi cascade records the paths of the psi cascade
    of its result; pivot 2 and the exempt cell take theirs at psi's output
    end (the result, or t)."""
    grid = _Grid(t)
    ends = [] if forward else _end_paths(grid)
    pivots = range(t.n, 2, -1) if forward else range(3, t.n + 1)
    stages, paths = [], []
    for k in pivots:
        h, blocks = grid.psi_step(k) if forward else grid.phi_step(k)
        paths.append((grid.pos[k], h))
        stages.append(MapStage(k, _lattice_path(grid.pos[k], h), tuple(map(tuple, blocks)), grid.tableau()))
    result = grid.tableau()
    if forward:
        ends = _end_paths(grid)
    return result, stages, sum(1 for _ in _pairs(t if forward else result, paths + ends))


def inv_code(t: Tableau) -> list[int]:
    """Per-content inversion counts: entry k-1 is the number of pairs whose
    larger cell holds k.  Sums to the inversion statistic."""
    code = [0] * t.n
    for big_cell, _ in _pairs(t, _anchored_heights(t)):
        code[t.content(big_cell) - 1] += 1
    return code


# --- NE (comaj) variant ----------------------------------------------------
#
# Rotating by 180 degrees inside the bounding box and complementing contents
# turns NE paths into SW paths, the side NW of a path into the side SE of it
# and "scan down from n" into "scan up from 1", so each NE object is the SW
# one of rotate_complement(t), rotated back.

_ROTATED_STEPS = str.maketrans("WSEN", "ENWS")


def _rotate_cell(shape: Shape, cell: Cell) -> Cell:
    return shape.n_rows + 1 - cell[0], shape.width + 1 - cell[1]


def _rotate_path(shape: Shape, path: LatticePath) -> LatticePath:
    """An SW path turned into an NE path of the rotated box, or back."""
    x, y = path.start
    return LatticePath((shape.width - x, shape.n_rows - y), path.steps.translate(_ROTATED_STEPS))


def ne_inversion_path(t: Tableau, k: int) -> LatticePath:
    """The NE lattice path from the upper-right corner of the cell holding k.

    The exact mirror of the SW path under 180-degree rotation: steps East
    when the content above beats the content to the right (absent cells
    count 0, double absence steps North) and ends, clamped at the bounding
    box border, in the box's upper-right corner.  After complementing,
    absent cells of the rotated tableau count as n+1.
    """
    _check_pivot(t, k, "content")
    grid = _Grid(rotate_complement(t))
    c = t.n + 1 - k
    return _rotate_path(t.shape, _lattice_path(grid.pos[c], grid.heights(c, t.n + 1)))


def ne_blocks(t: Tableau, k: int, path: LatticePath) -> BlockPartition:
    """Blocks for the NE variant: contents above k scanned downward, anchored
    on the side holding the cell of n."""
    bp = forward_blocks(rotate_complement(t), t.n + 1 - k, _rotate_path(t.shape, path))
    blocks = tuple(tuple(_rotate_cell(t.shape, c) for c in block) for block in bp.blocks)
    return BlockPartition(k, ABOVE if bp.anchor_side == BELOW else BELOW, blocks)


def comaj_map(t: Tableau) -> Tableau:
    """Composite NE-variant map, pivots 1 up to n-2; fixes the cell of 1.

    psi conjugated by rotate_complement, rotated back into t's own shape
    (rotate_complement trims leading empty rows and columns)."""
    return rotate_complement_into(psi(rotate_complement(t)), t.shape)


def ne_inversion_path_set(t: Tableau) -> InversionPathSet:
    r = rotate_complement(t)
    paths = _anchored_heights(r, t.n + 1)
    return InversionPathSet(
        {_rotate_cell(t.shape, cell): _rotate_path(t.shape, _lattice_path(cell, h)) for cell, h in paths[:-1]},
        _rotate_cell(t.shape, paths[-1][0]),
        {(_rotate_cell(t.shape, a), _rotate_cell(t.shape, b)) for a, b in _pairs(r, paths)},
    )


def cinv_statistic(t: Tableau) -> int:
    """Pairs of cells whose larger content lies weakly NW of the smaller
    cell's NE inversion path.

    Mirroring the SW statistic, the exempt cell anchors pairs through the
    trivial path at its own upper-right corner (every larger content weakly
    north-west of it counts)."""
    return inv_statistic(rotate_complement(t))
