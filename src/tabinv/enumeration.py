"""Exhaustive SYT generation and counting, distribution polynomials and
equidistribution checks."""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import islice

from .inversion import AlgorithmError, _inversions
from .model import Cell, Shape, Tableau, _Checked

# Each statistic of an SYT of shape s from pos, where pos[c] is the cell of
# content c, and its maj and comaj, as `_fillings` yields them: the values
# of stats.maj, stats.comaj, inversion.inv_statistic and
# inversion.cinv_statistic.  maj and comaj are the descent sums the walk
# keeps, one step per placement, so the pass calls no stats function; inv
# and cinv run the forward cascade (`_inversions`) on pos itself, with no
# path recorded and no Tableau built.  The filling is not validated, so pos
# must come from `_fillings`, whose placement guard proved it standard.
# A dict keyed by name, because `statistic_counts` and `_check_statistics`
# look each statistic up by name, and the report compares all four.  Every
# entry is a lambda, so a tracer that wraps the traced public functions it
# finds in the dict (as bench/tracing.py does) wraps none: the enumerator's
# inv and cinv never count as inversion.* calls.
STATISTICS: dict[str, Callable[[Shape, list[Cell], int, int], int]] = {
    "maj": lambda s, pos, maj, comaj: maj,
    "comaj": lambda s, pos, maj, comaj: comaj,
    "inv": lambda s, pos, maj, comaj: _inversions(s, pos).count,
    "cinv": lambda s, pos, maj, comaj: _inversions(s, pos, turned=True).count,
}

# The number of SYT whose values the pass lists before it counts them.
BLOCK = 1024


def normalize_shape(s: Shape) -> Shape:
    """Translate a skew shape so row 1 and column 1 are occupied.

    Strips empty leading/trailing rows and shifts columns left; straight
    shapes are already normal.
    """
    outer = list(s.outer)
    inner = [s.inner_at(i) for i in range(1, s.n_rows + 1)]
    while outer and outer[0] == inner[0]:
        outer.pop(0)
        inner.pop(0)
    while outer and outer[-1] == inner[-1]:
        outer.pop()
        inner.pop()
    if not outer:
        return Shape((), ())
    shift = min(q for p, q in zip(outer, inner) if p > q)
    outer = [max(p - shift, 0) for p in outer]
    inner = [max(q - shift, 0) for q in inner]
    while inner and inner[-1] == 0:
        inner.pop()
    return Shape(tuple(outer), tuple(inner))


def _free_region(s: Shape) -> tuple[list[int], list[int]]:
    """Inner and outer widths of the rows of s, each list with a 0 appended
    for the row above the top one."""
    inner = [s.inner_at(i) for i in range(1, s.n_rows + 1)] + [0]
    return inner, list(s.outer) + [0]


def _corner_rows(inner: list[int], length: Sequence[int]) -> list[int]:
    """Rows (0-based, ascending) whose rightmost free cell is an outer corner
    of the free cells: the row has a free cell and the row above is shorter."""
    return [i for i in range(len(inner) - 1) if inner[i] < length[i] > length[i + 1]]


def _placements(inner: list[int], lengths: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Each row the next content may go in, highest first as `_fillings`
    tries them, with the lengths it leaves: that row one shorter."""
    return [
        (i, lengths[:i] + (lengths[i] - 1,) + lengths[i + 1 :])
        for i in reversed(_corner_rows(inner, lengths))
    ]


# One move of `_fillings`: the row, the row above it, the column (0-based)
# of the cell it fills, that cell, whether the cell has a right neighbour
# and an upper one in the shape (fixed, as the rows never change length),
# the free-region lengths it leaves, and its link slot: the moves of the
# state it leads to, filled the first time the move descends.
_Move = tuple[list, list, int, Cell, bool, bool, tuple[int, ...], list]


def _fillings(s: Shape, prefix: tuple[int, ...] = ()) -> Iterator[tuple[list[list[int | None]], list[Cell], int, int]]:
    """Every SYT of s, as enumerate_syt orders them, whose largest contents
    sit where `prefix` puts them, as (rows, pos, maj, comaj): the rows
    bottom-up with None on inner cells, pos[c] the cell of content c (index
    0 unused, as `Tableau.positions` returns it), and the values of
    stats.maj_of(pos) and stats.comaj_of(pos).

    Both lists are the generator's live state, valid only until the next
    item is requested: a caller that keeps a filling copies it.

    Contents n, n-1, ..., 1 go one at a time into the rightmost free cell of
    a row, and the filling backtracks in place.  The walk follows a linked
    state graph: the moves from a free-region state are those of
    `_placements`, built once per state of a pass, and each move links the
    moves of the state it leads to, looked up the first time it descends.
    A descent then reads the link, and no state is hashed per node.
    `prefix` fixes the rows of the first len(prefix) contents: its moves
    are a chain of one-move lists, each in the link slot of the one before.

    maj and comaj are running sums: content k is a descent exactly when it
    goes in a row below that of k+1, which is placed already, and then the
    sums grow by k and n-k.  Each placement keeps the sums it found, and a
    backtrack restores them, so a filling costs no rescan of its n-1
    adjacent pairs.  On the 48,048 SYT of 5,4,3,2 (2-core x86-64, Python
    3.11, median of five best-of-9 rounds) the walk takes 1.5 us per SYT
    and `distribution(s, "maj")`, which counts its values a block at a
    time, 1.7 us.

    The guard checks every placement on the live array: the cell must be
    free, and its right and upper neighbours must be outside the shape or
    already filled, that is hold larger contents.  Every cell is filled once
    and every pair of adjacent cells is checked when its smaller cell is
    filled, so on each yielded filling this is a full standardness check,
    and the statistics read `pos` without validating again.  A failure
    raises AlgorithmError.
    """
    n = s.size
    inner, outer = _free_region(s)
    # Free cells hold 0 and inner cells None; above[i] is the row over row
    # i, an empty one over the top row.
    rows = [[None] * q + [0] * (p - q) for p, q in zip(s.outer, inner)]
    above = rows[1:] + [[]]
    pos: list[Cell] = [(0, 0)] * (n + 1)
    if not n:
        yield rows, pos, 0, 0
        return

    def move(i: int, after: tuple[int, ...]) -> _Move:
        row, up, j = rows[i], above[i], after[i]
        return row, up, j, (i + 1, j + 1), j + 1 < len(row), j < len(up), after, []

    table: dict[tuple[int, ...], list[_Move]] = {}

    def link(slot: list[_Move], lengths: tuple[int, ...]) -> list[_Move]:
        """Fill an empty link slot with the moves from a free-region state,
        worked out on the state's first visit."""
        found = table.get(lengths)
        if found is None:
            found = table[lengths] = [move(i, after) for i, after in _placements(inner, lengths)]
        slot += found
        return slot

    # The prefix's moves, each alone in the slot of the one before; the
    # last slot is filled on descent, and with no prefix the root's at once.
    lengths = tuple(outer)
    root = slot = []
    for i in prefix:
        lengths = lengths[:i] + (lengths[i] - 1,) + lengths[i + 1 :]
        slot.append(move(i, lengths))
        slot = slot[0][-1]
    # frames[d] iterates the moves of content n - d: a placement descends
    # to the next content, and an exhausted frame backtracks one content.
    frames = [iter(root or link(root, lengths))]
    # The row and column of each content placed, n first, with the maj,
    # comaj and row of content k+1 that its placement found.
    filled: list[tuple[list[int | None], int, int, int, int]] = []
    k = n
    maj = comaj = 0  # the sums over the descents decided so far, k+1 to n-1
    last = 0  # the row of content k+1, 0 while k is n: no row is below it
    while frames:
        for row, up, j, cell, right, upper, after, slot in frames[-1]:
            if row[j] != 0 or (right and row[j + 1] == 0) or (upper and up[j] == 0):
                raise AlgorithmError(f"content {k} offered to cell ({cell[0]},{cell[1]}) of the partial filling {rows}")
            row[j] = k
            pos[k] = cell
            if k == 1:
                if cell[0] < last:
                    yield rows, pos, maj + 1, comaj + n - 1
                else:
                    yield rows, pos, maj, comaj
                row[j] = 0
                continue
            filled.append((row, j, maj, comaj, last))
            if cell[0] < last:
                maj += k
                comaj += n - k
            last = cell[0]
            k -= 1
            frames.append(iter(slot or link(slot, after)))
            break
        else:
            frames.pop()
            if filled:
                row, j, maj, comaj, last = filled.pop()
                row[j] = 0
                k += 1


def enumerate_syt(s: Shape) -> Iterator[Tableau]:
    """Every SYT of s exactly once, in a deterministic order: depth first,
    placing n, n-1, ..., 1 each in a removable corner of the cells still
    free, corners in descending row order."""
    for rows, *_ in _fillings(s):
        yield Tableau(s, rows)


def count_syt(s: Shape) -> int:
    """Number of SYT of s, without enumerating them: contents n, n-1, ..., 1
    are placed as `_fillings` places them, and each level maps the free
    region's row lengths to the number of partial fillings that leave it
    (1 for the empty shape)."""
    inner, length = _free_region(s)
    level = {tuple(length): 1}
    for _ in range(s.size):
        below: dict[tuple[int, ...], int] = {}
        for lengths, count in level.items():
            for _, after in _placements(inner, lengths):
                below[after] = below.get(after, 0) + count
        level = below
    return sum(level.values())


def partitions_of(n: int, max_rows: int | None = None, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n in reverse-lexicographic order."""
    result: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, acc: list[int]):
        if remaining == 0:
            result.append(tuple(acc))
            return
        if max_rows is not None and len(acc) == max_rows:
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n if max_part is None else min(n, max_part), [])
    return result


def skew_catalog(max_cells: int = 8, max_rows: int = 4, max_width: int = 4) -> list[Shape]:
    """All skew shapes outer/inner with at most max_cells cells, at most
    max_rows rows and first part at most max_width, deduplicated by
    translation."""
    shapes: set[Shape] = set()
    for total in range(1, max_rows * max_width + 1):
        for outer in partitions_of(total, max_rows=max_rows, max_part=max_width):
            for size in range(max(0, total - max_cells), total):
                for inner in partitions_of(size, max_rows=len(outer), max_part=outer[0]):
                    if all(q <= p for q, p in zip(inner, outer)):
                        shapes.add(normalize_shape(Shape(outer, inner)))
    return sorted(shapes, key=lambda s: (s.size, s.outer, s.inner))


class DistributionPolynomial(_Checked, namedtuple("DistributionPolynomial", "coefficients")):
    """Nonnegative integer coefficients; index is the exponent of q.

    coefficients: tuple[int, ...], each an int (not a bool) and none
    negative, the last not 0; ValueError otherwise."""

    __slots__ = ()

    def __post_init__(self):
        c = self.coefficients
        if not {*map(type, c)} <= {int} or c and min(c) < 0:
            raise ValueError(f"coefficients must be nonnegative integers, got {c!r}")
        if c and c[-1] == 0:
            raise ValueError("coefficients not in canonical form (trailing zero)")

    @property
    def total(self) -> int:
        return sum(self.coefficients)

    @staticmethod
    def from_counts(counts: Mapping[int, int]) -> "DistributionPolynomial":
        """The polynomial whose coefficient of q^v is counts[v], 0 where v is
        missing; ValueError on a negative value."""
        if counts and min(counts) < 0:
            raise ValueError(f"values must be nonnegative, got {min(counts)}")
        return DistributionPolynomial(tuple(counts.get(v, 0) for v in range(max(counts, default=-1) + 1)))


def _check_statistics(names: list[str]) -> None:
    """Raise ValueError on the first name that is not in STATISTICS."""
    for name in names:
        if name not in STATISTICS:
            raise ValueError(f"unknown statistic {name!r}; choose from {sorted(STATISTICS)}")


def distribution(s: Shape, stat: str, workers: int = 1) -> DistributionPolynomial:
    """Distribution polynomial of a statistic over all SYT of s."""
    return _polynomial(s, statistic_counts(s, [stat], workers)[stat])


def statistic_counts(s: Shape, names: list[str], workers: int = 1) -> dict[str, Counter]:
    """A Counter for each named statistic over all SYT of s, from a single
    enumeration pass.  On a straight shape it counts the values.  On a skew
    shape it counts (cell, value) pairs, the cell pinning the classes of
    `equidistribution_report`: that of n for inv and maj, and that of 1 for
    cinv and comaj.

    With workers > 1 the pass is split into prefix chunks (see `_prefixes`)
    that the worker processes share; each chunk returns its counters, and
    they are added up.  At most min(workers, the CPUs available, the number
    of chunks) processes start.  The values are read from the positions
    `_fillings` keeps, without building or validating a Tableau per SYT.
    With no names there is nothing to compute, and nothing is enumerated.
    The names are checked before anything is enumerated or any worker
    starts."""
    _check_statistics(names)
    if not names:
        return {}
    workers = min(workers, _available_cpus())
    if workers <= 1:
        return _prefix_counts(s, (), names)
    # Imported here, not at the top: the pool pulls in multiprocessing, which
    # costs start-up time that a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    prefixes = _prefixes(s, 8 * workers)
    counts = {name: Counter() for name in names}
    with ProcessPoolExecutor(max_workers=min(workers, len(prefixes))) as pool:
        for chunk in pool.map(_prefix_counts, [s] * len(prefixes), prefixes, [names] * len(prefixes)):
            for name, counter in counts.items():
                counter.update(chunk[name])
    return counts


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _prefixes(s: Shape, count: int) -> list[tuple[int, ...]]:
    """The prefixes of `_fillings` at the shallowest depth that has at least
    `count` of them (or at depth n), in enumeration order, so the fillings
    of each prefix in turn are all fillings in order."""
    inner, length = _free_region(s)
    level = [((), tuple(length))]
    for _ in range(s.size):
        if len(level) >= count:
            break
        level = [(prefix + (i,), after) for prefix, lengths in level for i, after in _placements(inner, lengths)]
    return [prefix for prefix, _ in level]


def _prefix_counts(s: Shape, prefix: tuple[int, ...], names: list[str]) -> dict[str, Counter]:
    """The counters of `statistic_counts` over the fillings of
    `_fillings(s, prefix)`.  Each block of BLOCK fillings appends its values
    to one list per statistic, and on a skew shape its pinned cells to one
    list per pinning content; the lists are then counted, in C, and
    cleared, so the pass holds no value per SYT."""
    # The content whose cell pins each statistic's classes: n for inv and
    # maj, 1 for cinv and comaj (0, whose cell pos holds as (0, 0), on a
    # skew shape with no cells).
    pins = {} if s.is_straight else {name: s.size if name in ("inv", "maj") else min(s.size, 1) for name in names}
    columns = {name: [] for name in names}
    cells = {c: [] for c in pins.values()}
    reads = [(STATISTICS[name], column) for name, column in columns.items()]
    reads += [(lambda s, pos, maj, comaj, c=c: pos[c], column) for c, column in cells.items()]
    counts = {name: Counter() for name in columns}
    walk = _fillings(s, prefix)
    while True:
        for _, pos, maj, comaj in islice(walk, BLOCK):
            for read, column in reads:
                column.append(read(s, pos, maj, comaj))
        if not reads[0][1]:  # the walk is done
            return counts
        for name, column in columns.items():
            counts[name].update(zip(cells[pins[name]], column) if pins else column)
        for _, column in reads:
            column.clear()


def _classes(s: Shape, counts: Counter) -> dict[Cell | None, Counter]:
    """A statistic's counter from `statistic_counts` on s, as the values
    counted in each pinned class: one class, None, on a straight shape."""
    if s.is_straight:
        return {None: counts}
    classes: dict[Cell | None, Counter] = {}
    for (cell, value), count in counts.items():
        classes.setdefault(cell, Counter())[value] = count
    return classes


def _polynomial(s: Shape, counts: Counter) -> DistributionPolynomial:
    """The distribution polynomial of a statistic over all SYT of s, from
    its counter from `statistic_counts`: the sum of its classes."""
    return DistributionPolynomial.from_counts(sum(_classes(s, counts).values(), Counter()))


class ClassReport(namedtuple("ClassReport", "stat_a stat_b pinned_cell poly_a poly_b")):
    """One equidistribution comparison, optionally restricted to the class of
    tableaux with a pinned content in a given cell.

    stat_a, stat_b: str; pinned_cell: Cell | None;
    poly_a, poly_b: DistributionPolynomial."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.poly_a == self.poly_b


class EquidistributionReport(namedtuple("EquidistributionReport", "shape classes")):
    """Every comparison of `equidistribution_report` on one shape.

    shape: Shape; classes: list[ClassReport]."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.classes)


def equidistribution_report(s: Shape, counts: dict[str, Counter] | None = None) -> EquidistributionReport:
    """Compare Inv against maj and cinv against comaj.

    Straight shapes are compared globally; skew shapes per class, pinning the
    cell holding n (Inv/maj) respectively the cell holding 1 (cinv/comaj).
    `counts` holds at least the counters of the four statistics from
    statistic_counts(s, ...); they are computed when not given.
    """
    if counts is None:
        counts = statistic_counts(s, list(STATISTICS))
    classes: list[ClassReport] = []
    for a, b in (("inv", "maj"), ("cinv", "comaj")):
        classes_a, classes_b = _classes(s, counts[a]), _classes(s, counts[b])
        for cell in sorted(classes_a.keys() | classes_b.keys()):
            poly_a, poly_b = (DistributionPolynomial.from_counts(c.get(cell, {})) for c in (classes_a, classes_b))
            classes.append(ClassReport(a, b, cell, poly_a, poly_b))
    return EquidistributionReport(s, classes)
