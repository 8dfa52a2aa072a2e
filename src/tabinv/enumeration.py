"""Exhaustive SYT generation, distribution polynomials and equidistribution
checks, with an independent brute-force counting oracle."""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .inversion import AlgorithmError, cinv_statistic, inv_statistic
from .model import Cell, Shape, Tableau, corner_cells, validate_filling
from .stats import comaj, maj

STATISTICS: dict[str, Callable[[Tableau], int]] = {
    "maj": maj,
    "comaj": comaj,
    "inv": inv_statistic,
    "cinv": cinv_statistic,
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


def _corner_rows(inner: list[int], length: list[int]) -> list[int]:
    """Rows (0-based, ascending) whose rightmost free cell is an outer corner
    of the free cells: the row has a free cell and the row above is shorter."""
    return [i for i in range(len(inner) - 1) if inner[i] < length[i] > length[i + 1]]


def _fillings(s: Shape, prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int | None, ...], ...]]:
    """The rows of every SYT of s, as enumerate_syt orders them, whose
    largest contents sit where `prefix` puts them.

    Contents n, n-1, ..., 1 go one at a time into the rightmost free cell of
    a row; at each content the candidate rows are those of `_corner_rows`,
    highest first, and the filling backtracks in place.  `prefix` fixes the
    rows of the first len(prefix) contents.

    Each placement is checked: the cell must be free, and its right and
    upper neighbours must be outside the shape or already filled, that is
    hold larger contents.  Every cell is filled once and every pair of
    adjacent cells is checked when its smaller cell is filled, so on each
    yielded filling this is a full standardness check.  A failure raises
    AlgorithmError.
    """
    n = s.size
    inner, length = _free_region(s)
    # Free cells hold 0 and inner cells None; the empty row on top is the
    # upper neighbour of the top row.
    rows = [[None] * q + [0] * (p - q) for p, q in zip(s.outer, inner)] + [[]]
    placed: list[int] = []

    def place(i: int) -> None:
        row, up, j = rows[i], rows[i + 1], length[i] - 1
        k = n - len(placed)
        if row[j] != 0 or (j + 1 < len(row) and row[j + 1] == 0) or (j < len(up) and up[j] == 0):
            raise AlgorithmError(f"content {k} offered to cell ({i + 1},{j + 1}) of the partial filling {rows[:-1]}")
        row[j] = k
        length[i] = j
        placed.append(i)

    def unplace() -> None:
        i = placed.pop()
        rows[i][length[i]] = 0
        length[i] += 1

    for i in prefix:
        place(i)
    stack: list[list[int]] = []  # the untried rows at each depth below the prefix
    while True:
        if len(placed) == n:
            yield tuple(map(tuple, rows[:-1]))
            stack.append([])
        else:
            stack.append(_corner_rows(inner, length))
        while not stack[-1]:
            stack.pop()
            if not stack:
                return
            unplace()
        place(stack[-1].pop())


def enumerate_syt(s: Shape) -> Iterator[Tableau]:
    """Every SYT of s exactly once, in a deterministic order: depth first,
    placing n, n-1, ..., 1 each in a removable corner of the cells still
    free, corners in descending row order."""
    for rows in _fillings(s):
        yield Tableau(s, rows)


@lru_cache(maxsize=None)
def _count_syt_cached(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    s = Shape(outer, inner)
    if s.size == 0:
        return 1
    total = 0
    for corner in corner_cells(s):
        sub = normalize_shape(s.remove_cell(corner))
        total += _count_syt_cached(sub.outer, sub.inner)
    return total


def count_syt(s: Shape) -> int:
    """Number of SYT of s, via the memoized corner-removal recurrence."""
    norm = normalize_shape(s)
    return _count_syt_cached(norm.outer, norm.inner)


def brute_force_count(s: Shape) -> int:
    """Independent oracle: filter all n! placements through validation.

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
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    shapes: list[Shape] = []
    outers: list[tuple[int, ...]] = []
    for total in range(1, max_rows * max_width + 1):
        outers.extend(partitions_of(total, max_rows=max_rows, max_part=max_width))
    for outer in outers:
        inner_choices = [[]]
        for i, part in enumerate(outer):
            new_choices = []
            for prefix in inner_choices:
                upper = min(part, prefix[-1] if prefix else part)
                for q in range(0, upper + 1):
                    new_choices.append(prefix + [q])
            inner_choices = new_choices
        for inner in inner_choices:
            parts = tuple(q for q in inner if q > 0)
            if len(parts) != len([q for q in inner[: len(parts)]]):
                continue  # zeros must be trailing
            n = sum(outer) - sum(parts)
            if not 1 <= n <= max_cells:
                continue
            norm = normalize_shape(Shape(outer, parts))
            key = (norm.outer, norm.inner)
            if key not in seen:
                seen.add(key)
                shapes.append(norm)
    shapes.sort(key=lambda s: (s.size, s.outer, s.inner))
    return shapes


@dataclass(frozen=True)
class DistributionPolynomial:
    """Nonnegative integer coefficients; index is the exponent of q."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.coefficients and self.coefficients[-1] == 0:
            raise ValueError("coefficients not in canonical form (trailing zero)")

    @property
    def total(self) -> int:
        return sum(self.coefficients)

    @staticmethod
    def from_values(values: list[int]) -> "DistributionPolynomial":
        if not values:
            return DistributionPolynomial(())
        coeffs = [0] * (max(values) + 1)
        for v in values:
            coeffs[v] += 1
        return DistributionPolynomial(tuple(coeffs))


def distribution(s: Shape, stat: str, workers: int = 1) -> DistributionPolynomial:
    """Distribution polynomial of a statistic over all SYT of s."""
    if stat not in STATISTICS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {sorted(STATISTICS)}")
    return DistributionPolynomial.from_values(statistic_values(s, [stat], workers)[stat])


# Per-tableau values besides the statistics: the cells that pin the classes
# of equidistribution_report.
PINS: dict[str, Callable[[Tableau], Cell]] = {
    "cell_n": lambda t: t.positions()[t.n],
    "cell_1": lambda t: t.positions()[1],
}
REPORT_VALUES = ("inv", "maj", "cinv", "comaj", "cell_n", "cell_1")


def _values(tableaux: Iterator[Tableau], names: list[str]) -> dict[str, list]:
    fns = [STATISTICS[name] if name in STATISTICS else PINS[name] for name in names]
    values: dict[str, list] = {name: [] for name in names}
    for t in tableaux:
        for name, fn in zip(names, fns):
            values[name].append(fn(t))
    return values


def statistic_values(s: Shape, names: list[str], workers: int = 1) -> dict[str, list]:
    """Each named statistic or pin over all SYT of s, in enumeration order,
    from a single enumeration pass; with workers > 1 the pass is split into
    prefix chunks (see `_prefixes`) that the worker processes share."""
    if workers <= 1:
        return _values(enumerate_syt(s), names)
    prefixes = _prefixes(s, 8 * workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(_prefix_values, [s] * len(prefixes), prefixes, [names] * len(prefixes)))
    return {name: [v for chunk in chunks for v in chunk[name]] for name in names}


def _prefixes(s: Shape, count: int) -> list[tuple[int, ...]]:
    """The prefixes of `_fillings` at the shallowest depth that has at least
    `count` of them (or at depth n), in enumeration order, so the fillings
    of each prefix in turn are all fillings in order."""
    inner, length = _free_region(s)
    level = [((), length)]
    for _ in range(s.size):
        if len(level) >= count:
            break
        level = [
            (prefix + (i,), lengths[:i] + [lengths[i] - 1] + lengths[i + 1 :])
            for prefix, lengths in level
            for i in reversed(_corner_rows(inner, lengths))
        ]
    return [prefix for prefix, _ in level]


def _prefix_values(s: Shape, prefix: tuple[int, ...], names: list[str]) -> dict[str, list]:
    return _values((Tableau(s, rows) for rows in _fillings(s, prefix)), names)


@dataclass
class ClassReport:
    """One equidistribution comparison, optionally restricted to the class of
    tableaux with a pinned content in a given cell."""

    stat_a: str
    stat_b: str
    pinned_cell: Cell | None
    poly_a: DistributionPolynomial
    poly_b: DistributionPolynomial

    @property
    def ok(self) -> bool:
        return self.poly_a == self.poly_b


@dataclass
class EquidistributionReport:
    shape: Shape
    classes: list[ClassReport]

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
