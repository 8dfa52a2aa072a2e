"""Inversion paths, cycling maps and the tableau inversion statistic.

The forward map cycles contents inside blocks determined by a monotone
South-West lattice path; the composite over all pivots sends the inversion
statistic to the major index.  A North-East variant plays the same role for
the co-major index; it is the South-West machinery run on a grid turned by
180 degrees with its contents complemented.  One turn of the cell of each
content (`model._turned`, which `model.rotate_complement` also uses) fills
such a grid and carries an NE result back to the input's shape; the turned
shape (`model._rotated_shape`) is worked out only when asked for.

Every map runs on one mutable `_Grid`: a zero-padded array of contents plus
the cell of each content.  A path is kept as the height at which it crosses
each column, so a cell is below a path exactly when its row is at most the
height of its column.  Both step rules cut the contents below the pivot
into runs of consecutive contents, so a block is an interval [a, b) of
contents.  The forward step finds its blocks in one scan of the contents
(`_blocks`), the reverse step in one downward scan that resumes as its path
grows (`_Grid.phi_step`), and cycling a block rotates the slice pos[a:b] one
place and writes its contents back to their new cells (`_Grid.cycle`).

The inversion statistic is counted from the paths the forward cascade
records: each path counts the cells below it (`_below`), with no pair
built; only the callers that return the pairs build them (`_pairs`), from
the same paths and the same rule.  A Tableau runs each forward cascade,
SW and NE, at most once: its record (`_forward`) stays on the Tableau, and
psi, the statistic, its pairs, paths and code (and their NE mirrors) all
read it.  phi always runs its own reverse cascade.

A grid is filled from the cell of each content of a standard filling:
a Tableau's, which its construction proved standard, or one the
enumerator's placement guard proved standard.  The grid does not validate
it again.  Each pivot step checks only the contents it moved
(`_Grid.check`): each must stand in its new cell and be in order with its
four neighbours, which on a standard tableau is equivalent to validating
the whole result.  A failed check is a bug, raised as AlgorithmError.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .model import Cell, Shape, Tableau, _rotated_shape, _turned, validate_filling

BELOW = "below"  # weakly SE of a path
ABOVE = "above"  # weakly NW of a path


class AlgorithmError(RuntimeError):
    """Internal consistency failure; signals a bug, never bad user input."""


class LatticePath(NamedTuple):
    """A monotone unit-step path; start is a lattice point (x, y)."""

    start: tuple[int, int]
    steps: str  # "S"/"W" for SW paths, "N"/"E" for NE paths


class BlockPartition(NamedTuple):
    """Cycling blocks for one pivot; cells listed in increasing content order."""

    k: int
    anchor_side: str
    blocks: tuple[tuple[Cell, ...], ...]


def classify_side(path: LatticePath, cell: Cell) -> str:
    """BELOW (weakly SE) or ABOVE (weakly NW) for an SW path to the origin."""
    i, j = cell
    if j < 1:
        raise AlgorithmError(f"cell {cell} undetermined against complete path {path}")
    return BELOW if i <= _path_heights(path, j)[j] else ABOVE


def _lattice_path(cell: Cell, h: list[int]) -> LatticePath:
    """The SW path from the lower-left corner of cell with column heights h."""
    i, j = cell
    y, steps = i - 1, []
    for x in range(j - 1, 0, -1):
        steps.append("S" * (y - h[x]) + "W")
        y = h[x]
    steps.append("S" * y)
    return LatticePath((j - 1, i - 1), "".join(steps))


def _path_heights(path: LatticePath, width: int) -> list[int]:
    """The inverse of `_lattice_path`: the column heights, for columns up to
    at least `width`, of an SW path that ends at the origin.  Columns east
    of the start get the row of the start cell."""
    x, y = path.start
    if set(path.steps) - {"S", "W"} or (path.steps.count("W"), path.steps.count("S")) != (x, y):
        raise AlgorithmError(f"path {path} is not an SW path to the origin")
    h = [y + 1] * (max(width, x) + 1)
    for st in path.steps:
        if st == "W":
            h[x] = y
            x -= 1
        else:
            y -= 1
    return h


def _blocks(pos: list[Cell], h: list[int], k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The cycling blocks of the contents below k, for the path with column
    heights h, in one scan: the first content of each block, and the blocks
    of two or more contents as intervals [a, b).

    Scanned in increasing content order, a content on the side of the cell
    of 1 opens a block and one on the other side extends the current one.
    So the blocks are the runs of consecutive contents between one start
    and the next, the last one ending at k (see `_intervals`)."""
    i, j = pos[1]
    anchor = i <= h[j]
    starts: list[int] = []
    runs: list[tuple[int, int]] = []
    a = 1
    for c in range(1, k):
        i, j = pos[c]
        if (i <= h[j]) == anchor:
            if c - a > 1:
                runs.append((a, c))
            starts.append(c)
            a = c
    if k - a > 1:
        runs.append((a, k))
    return starts, runs


def _intervals(starts: list[int], k: int) -> Iterator[tuple[int, int]]:
    """The blocks [a, b) of the contents below k with the given starts."""
    return zip(starts, starts[1:] + [k])


class _Grid:
    """The working copy of a standard tableau that the cycling maps mutate.

    g[i][j] is the content of cell (i, j) and 0 outside the shape, with a
    border of zeros on every side; pos[c] is the cell holding content c.
    A grid built `turned` starts as the grid of the filling's
    rotate_complement.
    `absent` is what a path reads outside the shape: 0, or n+1 once turned.
    A pivot step cycles blocks of consecutive contents (`cycle`) and then
    checks the contents it moved (`check`).
    """

    def __init__(self, shape: Shape, pos: list[Cell], turned: bool = False):
        """The grid of the filling of shape with content c in cell pos[c],
        turned (`model._turned`) in the bounding box of shape if `turned`.

        The filling is not validated: it must be standard, as a Tableau's
        positions and the enumerator's guarded ones are.  pos is copied,
        so the caller may go on changing it."""
        rows, cols = shape.n_rows, shape.width
        pos, absent = (_turned(shape, pos), len(pos)) if turned else (list(pos), 0)
        self.filled, self.width, self.pos, self.absent = shape, cols, pos, absent
        self.g = g = [[0] * (cols + 2) for _ in range(rows + 2)]
        for c in range(1, len(pos)):
            i, j = pos[c]
            g[i][j] = c

    @property
    def shape(self) -> Shape:
        """The shape the grid was filled in, or, if the grid is turned, the
        shape that `model._turned` puts its cells in (`model._rotated_shape`);
        only `tableau` and a failed `check` ask for it, so a count never turns it."""
        s = self.filled
        return _rotated_shape(s) if self.absent else s

    def rows(self) -> tuple[tuple[int | None, ...], ...]:
        """The grid's contents as `Tableau.rows` holds them, unvalidated."""
        s = self.shape
        return tuple(
            (None,) * s.inner_at(i) + tuple(self.g[i][s.inner_at(i) + 1 : s.outer[i - 1] + 1])
            for i in range(1, s.n_rows + 1)
        )

    def tableau(self) -> Tableau:
        return Tableau(self.shape, self.rows())

    def heights(self, k: int) -> list[int]:
        """Column heights of the SW path from the lower-left corner of the
        cell of k.  At each interior corner the path steps West when the
        content to the left beats the content below, else South; absent
        cells count as `absent`.  So a tie, which only a double absence
        makes, steps South: South on the SW grid, and North once a turned
        grid's path is turned back into an NE path."""
        g, absent = self.g, self.absent
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

    def cycle(self, blocks: list[tuple[int, int]], forward: bool = True) -> None:
        """Cycle each block [a, b) of consecutive contents one place.

        Forward, the cell of a takes b-1 and the cell of each other content
        c takes c-1, so the slice pos[a:b] rotates one place to the left;
        reversed, it rotates one place to the right.  Either way the cells
        of the block only trade places.  Each content of the block is then
        written to its new cell."""
        g, pos = self.g, self.pos
        for a, b in blocks:
            if forward:  # pos[a:b] = pos[a + 1 : b] + [pos[a]]
                pos.insert(b - 1, pos.pop(a))
            else:  # pos[a:b] = [pos[b - 1]] + pos[a : b - 1]
                pos.insert(a, pos.pop(b - 1))
            for c in range(a, b):
                i, j = pos[c]
                g[i][j] = c

    def check(self, moved: list[tuple[int, int]], step: str, k: int | None = None) -> None:
        """Check the step `step`_k (or `step` with no k) that cycled the
        blocks [a, b) in moved.

        Each moved content v must stand in its cell pos[v], and that cell
        must be smaller than its right and upper neighbours and larger than
        its left and lower ones.  The cells of a block only traded places,
        so the first test makes the new contents of the moved cells a
        permutation of the old ones; no other pair of adjacent cells
        changed, so if the grid was standard before the step this passes
        exactly when it is standard after it.
        """
        g, pos = self.g, self.pos
        for a, b in moved:
            for v in range(a, b):
                i, j = pos[v]
                row = g[i]
                # Absent cells hold 0, which is below every content v >= 1,
                # so only the right and upper neighbours test for absence.
                if (
                    row[j] != v
                    or row[j - 1] >= v
                    or 0 < row[j + 1] <= v
                    or g[i - 1][j] >= v
                    or 0 < g[i + 1][j] <= v
                ):
                    violations = validate_filling(self.shape, self.rows())
                    violations = violations or [f"content {v} is not in its cell {pos[v]}"]
                    context = step if k is None else f"{step}_{k}"
                    raise AlgorithmError(f"{context} produced an invalid tableau: {violations}")

    def psi_step(self, k: int) -> tuple[list[int], list[int]]:
        """Forward cycling for pivot k >= 3 along its inversion path;
        returns the path's heights and the block starts (`_blocks`)."""
        h = self.heights(k)
        starts, moved = _blocks(self.pos, h, k)
        if moved:
            self.cycle(moved)
            self.check(moved, "psi", k)
        return h, starts

    def phi_step(self, k: int) -> tuple[list[int], list[int]]:
        """Reverse cycling for pivot k >= 3; returns the reconstructed path's
        heights and the block starts, in increasing order.

        The path grows from the cell (r, s) of k one step at a time.
        side[c] holds whether content c < k lies below the partial path, or
        None while the path may still pass its cell on either side.  Each
        cell is decided once.  At the start, a cell in column s or east of
        it is below exactly when its row is at most r, and a cell west of it
        in row r or up is above.  A West step at column x puts the cells of
        that column up to the path's height y below; a South step puts the
        cells of row y in columns 1..x above.

        Before each step every block the decided sides determine is
        consumed: scanning down from the largest unused content, a block is
        a content on the anchor side followed by the maximal run below it
        on the other side.  The scan keeps its cursor c from step to step,
        so no content is tested twice.  Each block is a run of consecutive
        contents, which cycles one place the other way from `psi_step`
        before the path's next step; cycling trades only the cells of
        contents that have joined a block, so the sides of the others stay
        true.  The step is checked once, on all the contents it moved.
        """
        g, pos = self.g, self.pos
        r, s = pos[k]
        anchor = r > pos[k - 1][0]  # k-1 is a descent: anchored below the path
        h = [r] * (self.width + 1)
        x, y = s - 1, r - 1
        side = [i <= r if j > x else (None if i <= y else False) for i, j in pos[:k]]
        low, c = k, k - 1  # contents low..k-1 have joined a block; c+1..low-1 are scanned
        starts: list[int] = []
        moved: list[tuple[int, int]] = []
        while True:
            found = len(moved)
            while low > 1:
                below = side[c] if c else anchor  # content 0 closes the last block
                if below is None:
                    break  # block not simple yet; resume once the path grows
                if below == anchor and c < low - 1:  # c opens the next block
                    starts.append(c + 1)
                    if low - c > 2:
                        moved.append((c + 1, low))
                    low = c + 1
                elif below != anchor and c == low - 1:
                    raise AlgorithmError(f"phi_{k}: top unused content {c} on the non-anchor side")
                c -= 1
            self.cycle(moved[found:], forward=False)
            if not (x and y):
                break
            b, left = g[y][x + 1], g[y + 1][x]
            if not (left and b):
                west = bool(left)  # forced for absent neighbours, mirroring the forward rule
            elif anchor:
                west = not (low <= b < k and b > left)
            else:
                west = low <= left < k and left > b
            if west:
                h[x] = y
                for i in range(1, y + 1):
                    side[g[i][x]] = True
                x -= 1
            else:
                for j in range(1, x + 1):
                    side[g[y][j]] = False
                y -= 1
        h[1 : x + 1] = [0] * x
        if low > 1:
            raise AlgorithmError(f"phi_{k}: contents {list(range(1, low))} never joined a simple block")
        self.check(moved, "phi", k)
        starts.reverse()
        return h, starts


def _check_pivot(t: Tableau, k: int, what: str = "pivot") -> None:
    if not 1 <= k <= t.n:
        raise ValueError(f"{what} {k} outside 1..{t.n}")


def inversion_path(t: Tableau, k: int) -> LatticePath:
    """The SW lattice path from the lower-left corner of the cell holding k.

    At each interior corner the path steps toward the larger of the two
    neighbor contents below and to the left; absent cells count as 0 and a
    double absence steps South.  The path ends at the origin.

    This is the path on t itself.  The path that `inversion_path_set(t)`
    records for the cell holding k is taken later in the cascade, so the two
    agree for k = n but not in general.
    """
    _check_pivot(t, k, "content")
    grid = _Grid(t.shape, t.positions())
    return _lattice_path(grid.pos[k], grid.heights(k))


def forward_blocks(t: Tableau, k: int, path: LatticePath) -> BlockPartition:
    """Partition of the contents below k into cycling blocks.

    Scanned in increasing content order: a content on the anchor side (the
    side of the cell holding 1) opens a block, one on the other side extends
    the current block.
    """
    _check_pivot(t, k)
    return _sw_blocks(_Grid(t.shape, t.positions()), k, path)


def _sw_blocks(grid: _Grid, k: int, path: LatticePath) -> BlockPartition:
    """`forward_blocks` on the contents of a grid."""
    pos = grid.pos
    if path.start != (pos[k][1] - 1, pos[k][0] - 1):
        raise AlgorithmError(f"path {path} does not start at the cell of {k}")
    h = _path_heights(path, grid.width)
    i, j = pos[1]
    blocks = tuple(tuple(pos[a:b]) for a, b in _intervals(_blocks(pos, h, k)[0], k))
    return BlockPartition(k, BELOW if i <= h[j] else ABOVE, blocks)


class MapStage(NamedTuple):
    k: int
    path: LatticePath
    blocks: tuple[tuple[Cell, ...], ...]
    result: Tableau


def _cycled(t: Tableau, step, pivots) -> Tableau:
    grid = _Grid(t.shape, t.positions())
    for k in pivots:
        step(grid, k)
    return grid.tableau()


def psi_k(t: Tableau, k: int) -> Tableau:
    """One forward cycling step for pivot k (identity for k <= 2)."""
    _check_pivot(t, k)
    return _cycled(t, _Grid.psi_step, [k] if k > 2 else [])


def psi(t: Tableau) -> Tableau:
    """Composite forward map, pivots n down to 3; sends Inv to maj."""
    return _Grid(t.shape, _forward(t).end).tableau()


def phi_k(s: Tableau, k: int) -> Tableau:
    """Inverse of psi_k, by reverse cycling along the reconstructed path."""
    _check_pivot(s, k)
    return _cycled(s, _Grid.phi_step, [k] if k > 2 else [])


def phi(s: Tableau) -> Tableau:
    """Inverse composite map, pivots 3 up to n."""
    return _cycled(s, _Grid.phi_step, range(3, s.n + 1))


class InversionPathSet(NamedTuple):
    """One path per cell, except one exempt cell, and the ordered pairs
    (path cell, counted cell) of the statistic they define.

    A cell's path is the path of the pivot that stands there, taken on the
    cascade's tableau just before that pivot's step.  Labelled with the
    content c the cell holds in the input (as `stats --paths` does), it
    equals `inversion_path(t, c)` for c = n but not in general."""

    paths: dict[Cell, LatticePath]
    exempt: Cell
    pairs: set[tuple[Cell, Cell]]


def _inversions(grid: _Grid) -> tuple[list[tuple[Cell, list[int]]], tuple[list[list[int]], list[Cell]]]:
    """Run the forward cascade on grid and return every path that anchors
    inversion pairs, and the grid's starting contents, on which they count
    (`_below`): the inversion paths of pivots n down to 2, each taken just
    before its own cycling step, then the trivial path at the lower-left
    corner of the exempt cell.  The statistic is the number of counted
    cells (`_count`); only the callers that return pairs build them
    (`_pairs`).

    Once pivot k has cycled, content k never moves again, so the path start
    cells are distinct and the exempt cell is where 1 ends up.
    """
    start = [row[:] for row in grid.g], grid.pos[:]
    paths = [(grid.pos[k], grid.psi_step(k)[0]) for k in range(len(grid.pos) - 1, 2, -1)]
    return paths + _end_paths(grid), start


class _Cascade(NamedTuple):
    """One forward cascade of a tableau, as `_inversions` returns it, and
    where each content ends up, in the tableau's own shape.  Read only."""

    paths: list[tuple[Cell, list[int]]]
    start: tuple[list[list[int]], list[Cell]]
    end: list[Cell]

    def count(self) -> int:
        """The inversion statistic the paths count (`_below`)."""
        return len(_below(*self.start, self.paths))


def _forward(t: Tableau, turned: bool = False) -> _Cascade:
    """The forward cascade of t, on a grid turned (`model._turned`) if `turned`.

    It runs on the first call for t and orientation, with every step
    checked, and its record is kept on t, so it lives as long as t does;
    later calls read it.  A cascade that raises keeps no record."""
    key = "_ne_cascade" if turned else "_sw_cascade"
    record = t.__dict__.get(key)
    if record is None:
        grid = _Grid(t.shape, t.positions(), turned)
        paths, start = _inversions(grid)
        record = _Cascade(paths, start, _turned(t.shape, grid.pos) if turned else grid.pos)
        object.__setattr__(t, key, record)  # Tableau is frozen; its fields stay as they are
    return record


def _count(grid: _Grid) -> int:
    """The inversion statistic of the grid's contents; the grid is left at
    the output end of the forward cascade."""
    paths, start = _inversions(grid)
    return len(_below(*start, paths))


def _end_paths(grid: _Grid) -> list[tuple[Cell, list[int]]]:
    """The paths of pivot 2 and of the exempt cell, on a grid at the output
    end of the forward cascade."""
    n = len(grid.pos) - 1
    paths = [(grid.pos[2], grid.heights(2))] if n >= 2 else []
    if n:
        i, j = grid.pos[1]
        paths.append(((i, j), [0] * j + [i] * (grid.width + 1 - j)))
    return paths


def _below(g: list[list[int]], pos: list[Cell], paths: list[tuple[Cell, list[int]]]) -> list[Cell]:
    """The cells the paths count on the grid contents g, with pos the cell
    of each content, path after path: for a path with start cell (i, j)
    and column heights h, each cell whose content is below g[i][j] and that
    lies below the path."""
    return [cell for (i, j), h in paths for cell in pos[1 : g[i][j]] if cell[0] <= h[cell[1]]]


def _pairs(
    paths: list[tuple[Cell, list[int]]], start: tuple[list[list[int]], list[Cell]]
) -> list[tuple[Cell, Cell]]:
    """(path cell, counted cell) for each cell a path counts (`_below`)."""
    return [(path[0], cell) for path in paths for cell in _below(*start, [path])]


def inversion_path_set(t: Tableau) -> InversionPathSet:
    """The n-1 inversion paths, recorded along the forward cascade: each on
    the cascade's tableau just before its pivot's step (see
    `InversionPathSet`), not on t."""
    paths, start, _ = _forward(t)
    return InversionPathSet(
        {cell: _lattice_path(cell, h) for cell, h in paths[:-1]},
        paths[-1][0],
        set(_pairs(paths, start)),
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
    record = _forward(t)
    return set(_pairs(record.paths, record.start))


def inv_statistic(t: Tableau) -> int:
    return _forward(t).count()


def map_trace(t: Tableau, forward: bool = True) -> tuple[Tableau, list[MapStage], int]:
    """psi(t), or phi(t) when not forward, with every pivot stage, and the
    inversion statistic of the tableau at psi's input end (t, or phi(t)),
    counted from the paths that same cascade records.

    phi_k reconstructs on its input exactly the path that psi_k takes on
    phi_k's output, so the phi cascade records the paths of the psi cascade
    of its result; pivot 2 and the exempt cell take theirs at psi's output
    end (the result, or t)."""
    grid = _Grid(t.shape, t.positions())
    start = [row[:] for row in grid.g], grid.pos[:]
    ends = [] if forward else _end_paths(grid)
    pivots = range(t.n, 2, -1) if forward else range(3, t.n + 1)
    stages, paths = [], []
    for k in pivots:
        before = grid.pos[:]
        h, starts = grid.psi_step(k) if forward else grid.phi_step(k)
        blocks = [tuple(before[a:b]) for a, b in _intervals(starts, k)]
        if not forward:  # found scanning down, each from its top content
            blocks = [block[::-1] for block in reversed(blocks)]
        paths.append((grid.pos[k], h))
        stages.append(MapStage(k, _lattice_path(grid.pos[k], h), tuple(blocks), grid.tableau()))
    result = grid.tableau()
    if forward:
        ends = _end_paths(grid)
    else:
        start = grid.g, grid.pos
    return result, stages, len(_below(*start, paths + ends))


def inv_code(t: Tableau) -> list[int]:
    """Per-content inversion counts: entry k-1 is the number of pairs whose
    larger cell holds k.  Sums to the inversion statistic."""
    code = [0] * t.n
    paths, start, _ = _forward(t)
    for path in paths:
        code[t.content(path[0]) - 1] = len(_below(*start, [path]))
    return code


# --- NE (comaj) variant ----------------------------------------------------
#
# Rotating by 180 degrees inside the bounding box and complementing contents
# turns NE paths into SW paths, the side NW of a path into the side SE of it
# and "scan down from n" into "scan up from 1", so each NE object is the SW
# one of the turned grid (`model._turned`), rotated back.

_ROTATED_STEPS = str.maketrans("WSEN", "ENWS")


def _turned_back(shape: Shape, pos: list[Cell]) -> dict[Cell, Cell]:
    """Each cell of a grid turned in the box of shape, with cells pos, to the cell it came from."""
    return dict(zip(pos[1:], _turned(shape, pos)[:0:-1]))


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
    absent cells of the turned grid count as n+1 (`_Grid.absent`).
    """
    _check_pivot(t, k, "content")
    grid = _Grid(t.shape, t.positions(), turned=True)
    c = t.n + 1 - k
    return _rotate_path(t.shape, _lattice_path(grid.pos[c], grid.heights(c)))


def ne_blocks(t: Tableau, k: int, path: LatticePath) -> BlockPartition:
    """Blocks for the NE variant: contents above k scanned downward, anchored
    on the side holding the cell of n: the SW blocks of the turned grid,
    with their cells turned back, on the other side of the path."""
    _check_pivot(t, k)
    grid = _Grid(t.shape, t.positions(), turned=True)
    bp = _sw_blocks(grid, t.n + 1 - k, _rotate_path(t.shape, path))
    back = _turned_back(t.shape, grid.pos)
    blocks = tuple(tuple(map(back.get, block)) for block in bp.blocks)
    return BlockPartition(k, ABOVE if bp.anchor_side == BELOW else BELOW, blocks)


def comaj_map(t: Tableau) -> Tableau:
    """Composite NE-variant map, pivots 1 up to n-2; fixes the cell of 1.

    psi run on the turned grid, whose cells turn back into t's own shape."""
    return _Grid(t.shape, _forward(t, turned=True).end).tableau()


def ne_inversion_path_set(t: Tableau) -> InversionPathSet:
    paths, start, _ = _forward(t, turned=True)
    back = _turned_back(t.shape, start[1])
    return InversionPathSet(
        {back[cell]: _rotate_path(t.shape, _lattice_path(cell, h)) for cell, h in paths[:-1]},
        back[paths[-1][0]],
        {(back[a], back[b]) for a, b in _pairs(paths, start)},
    )


def cinv_statistic(t: Tableau) -> int:
    """Pairs of cells whose larger content lies weakly NW of the smaller
    cell's NE inversion path.

    Mirroring the SW statistic, the exempt cell anchors pairs through the
    trivial path at its own upper-right corner (every larger content weakly
    north-west of it counts)."""
    return _forward(t, turned=True).count()
