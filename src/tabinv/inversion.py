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
contents.  The forward step finds its blocks in one scan of the contents,
the reverse step in one downward scan that resumes as its path grows
(`_Grid.phi_step`), and cycling a block rotates the slice pos[a:b] one
place and writes its contents back to their new cells (`_Grid.cycle`).  A
step returns only the blocks it cycled; `_partition` rebuilds the rest.
Every path stops at its first absent neighbour, the border included, and
runs South and then West from there (`_heights`): each cell weakly
south-west of that point is inner, so that tail decides no content, and
the paper's abstract (PAPER.md) does not fix it.  Paths are only outputs:
a function that needs one works it out from the tableau and the pivot.

Every forward step runs in one loop (`_cascade`): for each pivot in turn
it takes the path (`_heights`), scans the blocks, cycles and checks them,
and adds the cells its path counts on the grid's start contents: those
whose content is below the start content of the path's cell and that lie
below the path.  Run over pivots n down to 1 (`_inversions`), the count
is the inversion statistic: pivots 2 and 1 cycle nothing, and the path of
1, taken where 1 ends up, is the trivial path at the lower-left corner of
that exempt cell.  psi, psi_k, the forward stages of map_trace,
forward_blocks and ne_blocks run the same loop.  It keeps each pivot's
cell, path and blocks (`_Cascade.steps`) only when asked: a Tableau's
record asks, the enumerator's statistics do not, so a statistics pass
holds O(n + width) entries per SYT.  Only the callers that read the
pairs build them (`_pairs`), from the kept paths and the rule the count
uses.  A Tableau runs each forward cascade, SW and NE, at most once: its
record (`_forward`) stays on the Tableau, and psi, the statistic, its
pairs, paths and code (and comaj_map and cinv_statistic, the NE mirrors
of psi and the statistic) all read it; psi's image is built from the grid
the cascade ran on.  phi always runs its own reverse cascade.  The NE
pairs and paths are those of `model.rotate_complement(t)`, turned back.

A grid is filled from the cell of each content of a standard filling:
a Tableau's, which its construction proved standard, or one the
enumerator's placement guard proved standard.  The grid does not validate
it again.  Each pivot step checks only the contents it moved
(`_Grid.check`): each must stand in its new cell and be in order with its
four neighbours, which on a standard tableau is equivalent to validating
the whole result.  A failed check is a bug, raised as AlgorithmError.
"""

from __future__ import annotations

from collections import namedtuple

from .model import Cell, Filling, Shape, Tableau, _from_positions, _rotated_shape, _turned, validate_filling

BELOW = "below"  # weakly SE of a path
ABOVE = "above"  # weakly NW of a path


class AlgorithmError(RuntimeError):
    """Internal consistency failure; signals a bug, never bad user input."""


class LatticePath(namedtuple("LatticePath", "start steps")):
    """A monotone unit-step path; start is a lattice point (x, y).

    start: tuple[int, int]; steps: str, "S"/"W" for SW paths, "N"/"E" for
    NE paths."""

    __slots__ = ()


class BlockPartition(namedtuple("BlockPartition", "k anchor_side blocks")):
    """Cycling blocks for one pivot; cells listed in increasing content order.

    k: int; anchor_side: str; blocks: tuple[tuple[Cell, ...], ...]."""

    __slots__ = ()


def _lattice_path(cell: Cell, h: list[int]) -> LatticePath:
    """The SW path from the lower-left corner of cell with column heights h."""
    i, j = cell
    y, steps = i - 1, []
    for x in range(j - 1, 0, -1):
        steps.append("S" * (y - h[x]) + "W")
        y = h[x]
    steps.append("S" * y)
    return LatticePath((j - 1, i - 1), "".join(steps))


def _heights(g: list[list[int]], cell: Cell, width: int) -> list[int]:
    """Column heights of the SW path from the lower-left corner of cell on
    the grid contents g, of width columns.  At each corner it steps West
    when the content up and to the left beats the one down and to the
    right, else South, until one of them is absent (the border included),
    as in `_Grid.phi_step`.  Every cell weakly south-west of that point is
    inner, so the rest decides no content: it runs South to the x-axis and
    then West, a tail that PAPER.md (the abstract alone) does not fix."""
    r, s = cell
    h = [r] * (width + 1)
    x, y = s - 1, r - 1
    up, row = g[r], g[y]  # rows y+1 and y, either side of the point (x, y)
    while (left := up[x]) and (below := row[x + 1]):
        if left > below:
            h[x] = y
            x -= 1
        else:
            y -= 1
            up, row = row, g[y]
    while x:  # the tail at height 0; a loop is cheaper than a slice on short tails
        h[x] = 0
        x -= 1
    return h


def _partition(runs: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """All the blocks [a, b) of the contents below k, in order, from those
    of two or more (`_cascade`); every other content is a block of its own."""
    inside = {c for a, b in runs for c in range(a + 1, b)}
    starts = [c for c in range(1, k) if c not in inside]
    return list(zip(starts, starts[1:] + [k]))


class _Grid:
    """The working copy of a standard tableau that the cycling maps mutate.

    g[i][j] is the content of cell (i, j) and 0 outside the shape, with a
    border of zeros on every side; pos[c] is the cell holding content c.
    A grid built `turned` starts as the grid of the filling's
    rotate_complement.  No path reads past its first absent neighbour
    (`_heights`), so absent cells hold 0 either way.  A pivot step cycles
    blocks of consecutive contents (`cycle`) and then checks the contents
    it moved (`check`).
    """

    def __init__(self, shape: Shape, pos: list[Cell], turned: bool = False):
        """The grid of the filling of shape with content c in cell pos[c],
        turned (`model._turned`) in the bounding box of shape if `turned`.

        The filling is not validated: it must be standard, as a Tableau's
        positions and the enumerator's guarded ones are.  pos is copied,
        so the caller may go on changing it."""
        rows, cols = shape.n_rows, shape.width
        pos = _turned(shape, pos) if turned else list(pos)
        self.filled, self.width, self.pos, self.turned = shape, cols, pos, turned
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
        return _rotated_shape(s) if self.turned else s

    def rows(self) -> list[tuple[int | None, ...]]:
        """The grid's rows, unvalidated, each a tuple as `Tableau.rows`
        holds it, in a list that `Tableau.__new__` turns into a tuple once."""
        s = self.shape
        return [
            (None,) * s.inner_at(i) + tuple(self.g[i][s.inner_at(i) + 1 : s.outer[i - 1] + 1])
            for i in range(1, s.n_rows + 1)
        ]

    def tableau(self) -> Tableau:
        return Tableau(self.shape, self.rows())

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

    def phi_step(self, k: int) -> list[tuple[int, int]]:
        """Reverse cycling for pivot k; returns the blocks [a, b) of two or
        more contents it cycled, from the top down (none for k <= 2).

        The path grows from the cell (r, s) of k one step at a time.
        side[c] holds whether content c < k lies below the partial path, or
        None while the path may still pass its cell on either side.  Each
        cell is decided once.  At the start, a cell in column s or east of
        it is below exactly when its row is at most r, and a cell west of it
        in row r or up is above.  A West step at column x puts the cells of
        that column up to the path's height y below; a South step puts the
        cells of row y in columns 1..x above.  The path stops at its first
        absent neighbour (the border included): every cell south-west of it
        is inner and holds no content, so every side is decided.

        Before each step every block the decided sides determine is
        consumed: scanning down from the largest unused content, a block is
        a content on the anchor side followed by the maximal run below it
        on the other side.  The scan keeps its cursor c from step to step,
        so no content is tested twice.  Each block is a run of consecutive
        contents, which cycles one place the other way from the forward step
        before the path's next step; cycling trades only the cells of
        contents that have joined a block, so the sides of the others stay
        true.  The step is checked once, on all the contents it moved; a
        grid whose pos does not hold k's own cell fails before the step.
        """
        g, pos = self.g, self.pos
        r, s = pos[k]
        if g[r][s] != k:
            raise AlgorithmError(f"phi_{k}: content {k} is not in its cell {pos[k]}")
        anchor = r > pos[k - 1][0]  # k-1 is a descent: anchored below the path
        x, y = s - 1, r - 1
        side = [i <= r if j > x else (None if i <= y else False) for i, j in pos[:k]]
        low, c = k, k - 1  # contents low..k-1 have joined a block; c+1..low-1 are scanned
        moved: list[tuple[int, int]] = []
        while True:
            found = len(moved)
            while low > 1:
                below = side[c] if c else anchor  # content 0 closes the last block
                if below is None:
                    break  # block not simple yet; resume once the path grows
                if below == anchor and c < low - 1:  # c opens the next block
                    if low - c > 2:
                        moved.append((c + 1, low))
                    low = c + 1
                elif below != anchor and c == low - 1:
                    raise AlgorithmError(f"phi_{k}: top unused content {c} on the non-anchor side")
                c -= 1
            self.cycle(moved[found:], forward=False)
            b, left = g[y][x + 1], g[y + 1][x]
            if not (left and b):
                break
            if anchor:
                west = not (low <= b < k and b > left)
            else:
                west = low <= left < k and left > b
            if west:
                for i in range(1, y + 1):
                    side[g[i][x]] = True
                x -= 1
            else:
                for j in range(1, x + 1):
                    side[g[y][j]] = False
                y -= 1
        if low > 1:
            raise AlgorithmError(f"phi_{k}: contents {list(range(1, low))} never joined a simple block")
        self.check(moved, "phi", k)
        return moved


class _Cascade(namedtuple("_Cascade", "steps start grid count")):
    """One run of the forward loop (`_cascade`).  Read only.

    steps: list[tuple[Cell, list[int], list[tuple[int, int]]]] or None,
    (start cell, column heights, blocks cycled) for each pivot in the
    order run, each the path that pivot's step took; None when the run was
    not recorded.  start: tuple[list[list[int]], list[Cell]], the grid's
    contents and cell of each content before the first step.  grid:
    _Grid, the grid after the last step.  count: int, the cells the paths
    count on the start contents."""

    __slots__ = ()


def _cascade(grid: _Grid, pivots, steps: list | None = None) -> _Cascade:
    """Run the forward step of each pivot in turn on grid, and count.

    Each step takes the path from the cell of its pivot k (`_heights`),
    finds the blocks of two or more contents below k, cycles them
    (`_Grid.cycle`) and checks the contents it moved (`_Grid.check`).  The
    blocks are found in one scan in increasing content order: a content on
    the side of the cell of 1 opens a block and one on the other side
    extends the current one, so each block is a run [a, b) of consecutive
    contents.  Below 3 no run of two contents fits, so pivots 2 and 1 scan
    and cycle nothing; blocks of one content, which cycling leaves alone,
    are left out (`_partition` adds them).

    The step then counts, on the grid's start contents, each cell whose
    content is below the start content of the path's cell and that lies
    below the path.  Each step's cell, path and blocks are appended to
    steps, if it is a list; with None, the run keeps them nowhere, so it
    holds O(n + width) entries at any time.
    """
    g, pos, width = grid.g, grid.pos, grid.width
    g0, pos0 = start = [row[:] for row in g], pos[:]
    count = 0
    for k in pivots:
        cell = pos[k]
        h = _heights(g, cell, width)
        moved = []
        if k > 2:
            i, j = pos[1]
            anchor = i <= h[j]
            a = 1
            for c in range(2, k):
                i, j = pos[c]
                if (i <= h[j]) == anchor:
                    if c - a > 1:
                        moved.append((a, c))
                    a = c
            if k - a > 1:
                moved.append((a, k))
            if moved:
                grid.cycle(moved)
                grid.check(moved, "psi", k)
        for i, j in pos0[1 : g0[cell[0]][cell[1]]]:
            if i <= h[j]:
                count += 1
        if steps is not None:
            steps.append((cell, h, moved))
    return _Cascade(steps, start, grid, count)


def _check_pivot(t: Tableau, k: int, what: str = "pivot") -> None:
    if not 1 <= k <= t.n:
        raise ValueError(f"{what} {k} outside 1..{t.n}")


def inversion_path(t: Tableau, k: int) -> LatticePath:
    """The SW lattice path from the lower-left corner of the cell holding k.

    At each corner the path steps toward the larger of the two neighbour
    contents below and to the left.  It stops at its first absent
    neighbour and runs South, then West, to the origin: every cell past
    that point is inner, so the tail decides no content (`_heights`).

    This is the path on t itself.  The path that `inversion_path_set(t)`
    records for the cell holding k is taken later in the cascade, so the two
    agree for k = n but not in general.
    """
    _check_pivot(t, k, "content")
    grid = _Grid(t.shape, t.positions())
    return _lattice_path(grid.pos[k], _heights(grid.g, grid.pos[k], grid.width))


def forward_blocks(t: Tableau, k: int) -> BlockPartition:
    """Partition of the contents below k into cycling blocks along k's path.

    Scanned in increasing content order: a content on the anchor side (the
    side of the cell holding 1) opens a block, one on the other side extends
    the current block.
    """
    _check_pivot(t, k)
    return _sw_blocks(_Grid(t.shape, t.positions()), k)


def _sw_blocks(grid: _Grid, k: int) -> BlockPartition:
    """`forward_blocks` on the contents of a grid, from the step that pivot
    k takes on it (`_cascade`); the grid is left cycled."""
    pos = grid.pos[:]
    ((_, h, runs),) = _cascade(grid, [k], steps=[]).steps
    i, j = pos[1]
    blocks = tuple(tuple(pos[a:b]) for a, b in _partition(runs, k))
    return BlockPartition(k, BELOW if i <= h[j] else ABOVE, blocks)


def classify_side(t: Tableau, k: int, cell: Cell) -> str:
    """BELOW (weakly SE) or ABOVE (weakly NW) of k's path, for a cell of t."""
    _check_pivot(t, k, "content")
    if cell not in t.shape:
        raise ValueError(f"cell {cell} not in shape {t.shape}")
    grid = _Grid(t.shape, t.positions())
    return BELOW if cell[0] <= _heights(grid.g, grid.pos[k], grid.width)[cell[1]] else ABOVE


class MapStage(namedtuple("MapStage", "k path blocks result")):
    """One pivot step of a trace: its path, its blocks and the filling after
    it, which the step's check (`_Grid.check`) proved standard;
    `Tableau(*stage.result)` checks it again.

    k: int; path: LatticePath; blocks: tuple[tuple[Cell, ...], ...];
    result: Filling."""

    __slots__ = ()


def _reversed(s: Tableau, pivots) -> Tableau:
    grid = _Grid(s.shape, s.positions())
    for k in pivots:
        grid.phi_step(k)
    return grid.tableau()


def psi_k(t: Tableau, k: int) -> Tableau:
    """One forward cycling step for pivot k (pivots 1 and 2 cycle nothing)."""
    _check_pivot(t, k)
    return _cascade(_Grid(t.shape, t.positions()), [k]).grid.tableau()


def psi(t: Tableau) -> Tableau:
    """Composite forward map, pivots n down to 1 (2 and 1 cycle nothing);
    sends Inv to maj."""
    return _forward(t).grid.tableau()


def phi_k(s: Tableau, k: int) -> Tableau:
    """Inverse of psi_k, by reverse cycling along the reconstructed path."""
    _check_pivot(s, k)
    return _reversed(s, [k])


def phi(s: Tableau) -> Tableau:
    """Inverse composite map, pivots 3 up to n."""
    return _reversed(s, range(3, s.n + 1))


class InversionPathSet(namedtuple("InversionPathSet", "paths exempt pairs")):
    """One path per cell, except one exempt cell, and the ordered pairs
    (path cell, counted cell) of the statistic they define.

    A cell's path is the path of the pivot that stands there, taken on the
    cascade's tableau just before that pivot's step.  Labelled with the
    content c the cell holds in the input (as `stats --paths` does), it
    equals `inversion_path(t, c)` for c = n but not in general.  The empty
    tableau has no cell, so no path and no exempt cell (None).

    paths: dict[Cell, LatticePath]; exempt: Cell | None;
    pairs: set[tuple[Cell, Cell]]."""

    __slots__ = ()


def _inversions(shape: Shape, pos: list[Cell], turned: bool = False, steps: list | None = None) -> _Cascade:
    """The forward cascade (`_cascade`), pivots n down to 1, on the grid of
    the filling of shape with content c in cell pos[c], turned if `turned`
    (as `_Grid` is), with each step appended to steps if it is a list.

    By one rule for every pivot, its path is the one its step takes from
    the cell of k just before it cycles.  Pivots 2 and 1 cycle nothing, and
    1, the smallest content, has no neighbour to its left or below, so its
    path, taken where 1 ends up, is the trivial path at the lower-left
    corner of that exempt cell.  Once pivot k has cycled, content k never
    moves again, so the path start cells are distinct.
    """
    return _cascade(_Grid(shape, pos, turned), range(len(pos) - 1, 0, -1), steps)


def _forward(t: Tableau, turned: bool = False) -> _Cascade:
    """The forward cascade of t, on a grid turned (`model._turned`) if `turned`.

    It runs on the first call for t and orientation, with every step
    checked and every path recorded, and its record is kept on t, so it
    lives as long as t does; later calls read it.  A cascade that raises
    keeps no record.  Either orientation keeps the record as `_inversions`
    made it, so a turned record's grid is turned."""
    key = "_ne_cascade" if turned else "_sw_cascade"
    record = t.__dict__.get(key)
    if record is None:
        record = _inversions(t.shape, t.positions(), turned, steps=[])
        object.__setattr__(t, key, record)  # Tableau is frozen; its fields stay as they are
    return record


def _pairs(record: _Cascade) -> list[tuple[Cell, Cell]]:
    """(path cell, counted cell) for each cell a recorded cascade counts:
    for a path with start cell (i, j) and column heights h, each cell whose
    start content is below the start content of (i, j) and that lies below
    the path, as `_cascade` counts them."""
    g, pos = record.start
    return [((i, j), cell) for (i, j), h, _ in record.steps for cell in pos[1 : g[i][j]] if cell[0] <= h[cell[1]]]


def inversion_path_set(t: Tableau) -> InversionPathSet:
    """The n-1 inversion paths, recorded along the forward cascade: each on
    the cascade's tableau just before its pivot's step (see
    `InversionPathSet`), not on t."""
    record = _forward(t)
    return InversionPathSet(
        {cell: _lattice_path(cell, h) for cell, h, _ in record.steps[:-1]},
        record.steps[-1][0] if record.steps else None,
        set(_pairs(record)),
    )


def inversion_pairs(t: Tableau) -> set[tuple[Cell, Cell]]:
    """Ordered cell pairs whose smaller content lies below the larger cell's
    inversion path.

    The exempt cell, where 1 ends up, anchors pairs through pivot 1's path,
    found by the rule of every other pivot: 1 has no neighbour to its left
    or below, so that is the trivial (empty) path at the cell's own
    lower-left corner, and every smaller content weakly south-east of it
    counts.  On a straight shape the exempt cell is (1, 1), which holds 1
    and therefore anchors nothing; on skew shapes the rule is what makes
    the statistic match the major index of the composite map.
    """
    return set(_pairs(_forward(t)))


def inv_statistic(t: Tableau) -> int:
    return _forward(t).count


def map_trace(t: Tableau, forward: bool = True) -> list[MapStage]:
    """The pivot stages of psi(t), pivots n down to 3, or of phi(t), pivots
    3 up to n, when not forward; the last stage's result is the image, and
    there is no stage when n < 3.

    A stage's blocks are all its blocks (`_partition`), on the cells of the
    stage's input.  A phi_k stage shows the path that psi_k takes on the
    stage's result (`_heights`), and its blocks as phi finds them: scanning
    down, each from its top content."""
    grid = _Grid(t.shape, t.positions())
    stages = []
    for k in range(t.n, 2, -1) if forward else range(3, t.n + 1):
        before = grid.pos[:]
        if forward:
            ((_, h, runs),) = _cascade(grid, [k], steps=[]).steps
            blocks = [tuple(before[a:b]) for a, b in _partition(runs, k)]
        else:
            runs, h = grid.phi_step(k), _heights(grid.g, grid.pos[k], grid.width)
            blocks = [tuple(before[a:b][::-1]) for a, b in reversed(_partition(runs, k))]
        result = Filling(grid.shape, tuple(grid.rows()))
        stages.append(MapStage(k, _lattice_path(grid.pos[k], h), tuple(blocks), result))
    return stages


def inv_code(t: Tableau) -> list[int]:
    """Per-content inversion counts: entry k-1 is the number of pairs whose
    larger cell holds k.  Sums to the inversion statistic."""
    record = _forward(t)
    g, code = record.start[0], [0] * t.n  # g is t's own grid
    for (i, j), _ in _pairs(record):
        code[g[i][j] - 1] += 1
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
    """An SW path of the turned grid as the NE path of the box of shape."""
    x, y = path.start
    return LatticePath((shape.width - x, shape.n_rows - y), path.steps.translate(_ROTATED_STEPS))


def ne_inversion_path(t: Tableau, k: int) -> LatticePath:
    """The NE lattice path from the upper-right corner of the cell holding k.

    The exact mirror of the SW path under 180-degree rotation: steps East
    when the content above beats the content to the right, else North,
    stops at its first absent neighbour and runs North, then East, to the
    box's upper-right corner: every cell past that point is inner, so the
    tail decides no content.
    """
    _check_pivot(t, k, "content")
    grid = _Grid(t.shape, t.positions(), turned=True)
    c = t.n + 1 - k
    return _rotate_path(t.shape, _lattice_path(grid.pos[c], _heights(grid.g, grid.pos[c], grid.width)))


def ne_blocks(t: Tableau, k: int) -> BlockPartition:
    """Blocks for the NE variant: contents above k scanned downward, anchored
    on the side holding the cell of n: the SW blocks of the turned grid,
    with their cells turned back, on the other side of the path."""
    _check_pivot(t, k)
    grid = _Grid(t.shape, t.positions(), turned=True)
    back = _turned_back(t.shape, grid.pos)
    bp = _sw_blocks(grid, t.n + 1 - k)
    blocks = tuple(tuple(map(back.get, block)) for block in bp.blocks)
    return BlockPartition(k, ABOVE if bp.anchor_side == BELOW else BELOW, blocks)


def comaj_map(t: Tableau) -> Tableau:
    """Composite NE-variant map, pivots 1 up to n-2; fixes the cell of 1.

    psi run on the turned grid, whose cells turn back into t's own shape."""
    return _from_positions(t.shape, _turned(t.shape, _forward(t, turned=True).grid.pos))


def cinv_statistic(t: Tableau) -> int:
    """Pairs of cells whose larger content lies weakly NW of the smaller
    cell's NE inversion path.

    Mirroring the SW statistic, the exempt cell anchors pairs through the
    trivial path at its own upper-right corner (every larger content weakly
    north-west of it counts)."""
    return _forward(t, turned=True).count
