"""Exhaustive SYT generation and counting, distribution polynomials and
equidistribution checks."""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence

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
# A dict keyed by name, because `statistic_values`, `_check_statistics`
# and the tests look each statistic up by name.  Every entry is a lambda, so a
# tracer that wraps the traced public functions it finds in the dict (as
# bench/tracing.py does) wraps none: the enumerator's inv and cinv never
# count as inversion.* calls.
STATISTICS: dict[str, Callable[[Shape, list[Cell], int, int], int]] = {
    "maj": lambda s, pos, maj, comaj: maj,
    "comaj": lambda s, pos, maj, comaj: comaj,
    "inv": lambda s, pos, maj, comaj: _inversions(s, pos).count,
    "cinv": lambda s, pos, maj, comaj: _inversions(s, pos, turned=True).count,
}


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
# of the cell it fills, that cell, and the free-region lengths it leaves.
_Move = tuple[list, list, int, Cell, tuple[int, ...]]


def _fillings(s: Shape, prefix: tuple[int, ...] = ()) -> Iterator[tuple[list[list[int | None]], list[Cell], int, int]]:
    """Every SYT of s, as enumerate_syt orders them, whose largest contents
    sit where `prefix` puts them, as (rows, pos, maj, comaj): the rows
    bottom-up with None on inner cells, pos[c] the cell of content c (index
    0 unused, as `Tableau.positions` returns it), and the values of
    stats.maj_of(pos) and stats.comaj_of(pos).

    Both lists are the generator's live state, valid only until the next
    item is requested: a caller that keeps a filling copies it.

    Contents n, n-1, ..., 1 go one at a time into the rightmost free cell of
    a row, and the filling backtracks in place.  The candidate rows are
    those of `_placements`, worked out once per free-region state of a
    pass; `prefix` fixes the rows of the first len(prefix) contents.

    maj and comaj are running sums: content k is a descent exactly when it
    goes in a row below that of k+1, which is placed already, and then the
    sums grow by k and n-k.  Each placement keeps the sums it found, and a
    backtrack restores them, so a filling costs no rescan of its n-1
    adjacent pairs.  On the 48,048 SYT of 5,4,3,2 (2-core x86-64, Python
    3.11) the sums raise the walk from 2.1 to 2.3 us per SYT and lower
    `distribution(s, "maj")` from 3.7 to 2.5 us per SYT.

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
        return rows[i], above[i], after[i], (i + 1, after[i] + 1), after

    table: dict[tuple[int, ...], list[_Move]] = {}

    def moves(lengths: tuple[int, ...]) -> list[_Move]:
        """The moves from a free-region state, worked out on its first visit."""
        found = table.get(lengths)
        if found is None:
            found = table[lengths] = [move(i, after) for i, after in _placements(inner, lengths)]
        return found

    forced: list[list[_Move]] = []  # the one move of each content the prefix places
    lengths = start = tuple(outer)
    for i in prefix:
        lengths = lengths[:i] + (lengths[i] - 1,) + lengths[i + 1 :]
        forced.append([move(i, lengths)])
    # frames[d] iterates the moves of content n - d: a placement descends
    # to the next content, and an exhausted frame backtracks one content.
    frames = [iter(forced[0] if forced else moves(start))]
    # The row and column of each content placed, n first, with the maj,
    # comaj and row of content k+1 that its placement found.
    filled: list[tuple[list[int | None], int, int, int, int]] = []
    k = n
    maj = comaj = 0  # the sums over the descents decided so far, k+1 to n-1
    last = 0  # the row of content k+1, 0 while k is n: no row is below it
    while frames:
        for row, up, j, cell, after in frames[-1]:
            if row[j] != 0 or (j + 1 < len(row) and row[j + 1] == 0) or (j < len(up) and up[j] == 0):
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
            frames.append(iter(forced[n - k] if n - k < len(forced) else moves(after)))
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
    def from_values(values: list[int]) -> "DistributionPolynomial":
        """The polynomial whose coefficient of q^v counts v among values;
        ValueError on a negative value."""
        if values and min(values) < 0:
            raise ValueError(f"values must be nonnegative, got {min(values)}")
        coeffs = [0] * (max(values, default=-1) + 1)
        for v in values:
            coeffs[v] += 1
        return DistributionPolynomial(tuple(coeffs))


def _check_statistics(names: list[str]) -> None:
    """Raise ValueError on the first name that is not in STATISTICS."""
    for name in names:
        if name not in STATISTICS:
            raise ValueError(f"unknown statistic {name!r}; choose from {sorted(STATISTICS)}")


def distribution(s: Shape, stat: str, workers: int = 1) -> DistributionPolynomial:
    """Distribution polynomial of a statistic over all SYT of s."""
    _check_statistics([stat])
    return DistributionPolynomial.from_values(statistic_values(s, [stat], workers)[stat])


# Per-tableau values besides the statistics, from the shape, pos and the
# descent sums as in STATISTICS: the cells that pin the classes of
# equidistribution_report, those of n and of 1 ((0, 0) on the empty shape).
PINS: dict[str, Callable[[Shape, list[Cell], int, int], Cell]] = {
    "cell_n": lambda s, pos, maj, comaj: pos[-1],
    "cell_1": lambda s, pos, maj, comaj: pos[min(len(pos) - 1, 1)],
}
REPORT_VALUES = ("inv", "maj", "cinv", "comaj", "cell_n", "cell_1")


def statistic_values(s: Shape, names: list[str], workers: int = 1) -> dict[str, list]:
    """Each named statistic or pin over all SYT of s, in enumeration order,
    from a single enumeration pass; with workers > 1 the pass is split into
    prefix chunks (see `_prefixes`) that the worker processes share.  At
    most min(workers, the CPUs available, the number of chunks) processes
    start.

    The values are read from the positions `_fillings` keeps, without
    building or validating a Tableau per SYT.  With no names there is
    nothing to compute, and nothing is enumerated.  The names are checked
    before anything is enumerated or any worker starts."""
    for name in names:
        if name not in STATISTICS and name not in PINS:
            known = f"{sorted(STATISTICS)} or the pins {sorted(PINS)}"
            raise ValueError(f"unknown statistic {name!r}; choose from {known}")
    if not names:
        return {}
    workers = min(workers, _available_cpus())
    if workers <= 1:
        return _prefix_values(s, (), names)
    # Imported here, not at the top: the pool pulls in multiprocessing, which
    # costs start-up time that a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    prefixes = _prefixes(s, 8 * workers)
    with ProcessPoolExecutor(max_workers=min(workers, len(prefixes))) as pool:
        chunks = list(pool.map(_prefix_values, [s] * len(prefixes), prefixes, [names] * len(prefixes)))
    return {name: [v for chunk in chunks for v in chunk[name]] for name in names}


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


def _prefix_values(s: Shape, prefix: tuple[int, ...], names: list[str]) -> dict[str, list]:
    """Each named value over the fillings of `_fillings(s, prefix)`."""
    columns = [(STATISTICS[name] if name in STATISTICS else PINS[name], []) for name in names]
    for _, pos, maj, comaj in _fillings(s, prefix):
        for fn, column in columns:
            column.append(fn(s, pos, maj, comaj))
    return {name: column for name, (_, column) in zip(names, columns)}


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


def equidistribution_report(s: Shape, values: dict[str, list] | None = None) -> EquidistributionReport:
    """Compare Inv against maj and cinv against comaj.

    Straight shapes are compared globally; skew shapes per class, pinning the
    cell holding n (Inv/maj) respectively the cell holding 1 (cinv/comaj).
    `values` holds at least REPORT_VALUES from statistic_values(s, ...); it
    is computed when not given.
    """
    if values is None:
        values = statistic_values(s, list(REPORT_VALUES))
    classes: list[ClassReport] = []

    def compare(a: str, b: str, pin: str | None):
        groups: dict[Cell | None, list[int]] = {}
        for idx in range(len(values[a])):
            groups.setdefault(values[pin][idx] if pin else None, []).append(idx)
        for cell in sorted(groups, key=lambda c: c or (0, 0)):
            idxs = groups[cell]
            classes.append(
                ClassReport(
                    a,
                    b,
                    cell,
                    DistributionPolynomial.from_values([values[a][i] for i in idxs]),
                    DistributionPolynomial.from_values([values[b][i] for i in idxs]),
                )
            )

    straight = s.is_straight
    compare("inv", "maj", None if straight else "cell_n")
    compare("cinv", "comaj", None if straight else "cell_1")
    return EquidistributionReport(s, classes)
