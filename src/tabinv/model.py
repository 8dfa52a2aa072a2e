"""Shapes, cells and standard Young tableaux.

Coordinates are French: cell (i, j) sits in row i (counted from the bottom,
starting at 1) and column j.  A skew shape is a pair of partitions
outer/inner with inner contained in outer; a straight shape has empty inner.
"""

from __future__ import annotations

from collections import namedtuple

Cell = tuple[int, int]  # (row, col), both 1-based


class ShapeError(ValueError):
    """Raised for malformed partitions or shapes."""


class TableauError(ValueError):
    """Raised for fillings that are not standard Young tableaux."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _check_parts(parts: tuple[int, ...], what: str) -> None:
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            raise ShapeError(f"{what} parts must be positive integers, got {parts}")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ShapeError(f"{what} parts not weakly decreasing: {parts}")


class _Checked:
    """Base of a namedtuple subclass whose construction checks its fields:
    every way to build one, `_make`, `_replace`, `pickle` and `copy`
    (`copy.replace` too, on Python 3.13) included, runs the class's
    `__post_init__`, looked up when it runs.  Listed before the namedtuple
    among the bases, so its `_make` is the one found.

    The value types are `collections.namedtuple`s because defining them
    costs a cold start next to nothing, and `src/` imports no `typing`
    (see README's Start-up section).  They carry no `__annotations__`:
    each one's docstring gives its field types."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self.__post_init__()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        # pickle and copy carry the fields alone, and loading checks them.
        return type(self), tuple(self)


class Shape(_Checked, namedtuple("Shape", "outer inner", defaults=((),))):
    """A straight or skew Ferrers diagram, outer minus inner.

    outer: tuple[int, ...]; inner: tuple[int, ...], () by default."""

    __slots__ = ()

    def __post_init__(self):
        _check_parts(self.outer, "outer")
        _check_parts(self.inner, "inner")
        if len(self.inner) > len(self.outer):
            raise ShapeError(f"inner {self.inner} has more parts than outer {self.outer}")
        for i, q in enumerate(self.inner):
            if q > self.outer[i]:
                raise ShapeError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    @property
    def width(self) -> int:
        return self.outer[0] if self.outer else 0

    def inner_at(self, i: int) -> int:
        """Inner width of row i (1-based); 0 when inner has no such part."""
        return self.inner[i - 1] if i <= len(self.inner) else 0

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def is_straight(self) -> bool:
        return not self.inner

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.outer) and self.inner_at(i) < j <= self.outer[i - 1]

    def cells(self) -> list[Cell]:
        """All cells, row by row from the bottom."""
        return [
            (i, j)
            for i in range(1, self.n_rows + 1)
            for j in range(self.inner_at(i) + 1, self.outer[i - 1] + 1)
        ]

    def conjugate(self) -> "Shape":
        return Shape(_conjugate_parts(self.outer), _conjugate_parts(self.inner))


def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    cols: list[int] = []
    for r in range(len(parts), 0, -1):  # the columns past part r+1, up to part r, are r long
        cols += [r] * (parts[r - 1] - len(cols))
    return tuple(cols)


def _decimal(token: str) -> int:
    """token, stripped of surrounding whitespace, as a number written in the
    ASCII digits 0-9 alone: no sign, underscore or other script's digits.
    Raises ValueError otherwise.  Every parser of user text reads its
    numbers through this one rule."""
    token = token.strip()
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def parse_shape(text: str) -> Shape:
    """Parse "4,3,1" or "6,5,4/3,1" into a Shape."""

    def parse_parts(chunk: str) -> tuple[int, ...]:
        chunk = chunk.strip()
        if not chunk:
            return ()
        try:
            return tuple(_decimal(tok) for tok in chunk.split(","))
        except ValueError:
            raise ShapeError(f"non-numeric token in shape {text!r}") from None

    if text.count("/") > 1:
        raise ShapeError(f"too many '/' in shape {text!r}")
    outer_str, _, inner_str = text.partition("/")
    outer = parse_parts(outer_str)
    if not outer:
        raise ShapeError("empty outer partition")
    shape = Shape(outer, parse_parts(inner_str))
    if shape.size == 0:
        raise ShapeError(f"shape {text!r} has no cells")
    return shape


def format_shape(s: Shape) -> str:
    out = ",".join(str(p) for p in s.outer)
    if s.inner:
        out += "/" + ",".join(str(p) for p in s.inner)
    return out


class Filling(namedtuple("Filling", "shape rows")):
    """A shape plus its rows, stored bottom-up, None on inner cells; nothing
    about it is checked.  `Tableau(*filling)` checks one.

    shape: Shape; rows: tuple[tuple[int | None, ...], ...]."""

    __slots__ = ()


_ROWS = (list, tuple)  # the types that rows, and each row, may have


class Tableau(_Checked, Filling):
    """A standard Young tableau: a Filling whose construction proved it
    standard.

    `Tableau(shape, rows)` is the one way to build one.  rows, bottom row
    first, is a list or a tuple of list-or-tuple rows, kept as a tuple of
    tuples, so equal tableaux hash equal however their rows were given.
    Construction is the one check `validate_filling`: it raises
    TableauError with the violations that check returns, the first
    structural fault alone or else every standardness violation, so every
    Tableau is an SYT.

    Like every value type of tabinv, a Tableau is a tuple of its fields,
    (shape, rows), and nothing can be assigned to it.

    `inversion._forward` may keep the record of a forward cascade on an
    instance.  It is not a field, so equality, hashing and repr ignore it.
    """

    def __new__(cls, shape, rows):
        # Rows of any other type stay as given, for validate_filling to name.
        # A list first: tuple() of an iterator over-allocates and then
        # shrinks, which fragments the heap and raises the peak RSS.
        if isinstance(rows, _ROWS):
            rows = tuple([tuple(row) if isinstance(row, _ROWS) else row for row in rows])
        return super().__new__(cls, shape, rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Tableau is immutable")

    def __post_init__(self):
        violations = validate_filling(*self)
        if violations:
            raise TableauError(violations)

    @property
    def n(self) -> int:
        return self.shape.size

    def content(self, cell: Cell) -> int:
        """The content of a cell of the shape; ValueError for any other
        cell, an inner one included."""
        if cell not in self.shape:
            raise ValueError(f"cell {cell} is not a cell of shape {format_shape(self.shape)}")
        i, j = cell
        return self.rows[i - 1][j - 1]

    def positions(self) -> list[Cell]:
        """positions()[c] is the cell holding content c (index 0 unused)."""
        pos: list[Cell] = [(0, 0)] * (self.n + 1)
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row, start=1):
                if v is not None:
                    pos[v] = (i, j)
        return pos

    def replace(self, updates: dict[Cell, int]) -> "Tableau":
        """New tableau with the given cells overwritten; raises TableauError
        if the result is not standard."""
        rows = [list(r) for r in self.rows]
        for (i, j), v in updates.items():
            rows[i - 1][j - 1] = v
        return Tableau(self.shape, rows)


def validate_filling(shape: Shape, rows: list[list[int | None]]) -> list[str]:
    """The reasons why rows, bottom row first, are not an SYT of shape;
    [] exactly when they are one, that is when `Tableau(shape, rows)`
    constructs, whose TableauError carries this same list otherwise.

    Rows that do not fit the shape (rows, or a row, that is not a list or
    a tuple, then a row too many or too few, a row of the wrong length, or
    a cell whose None-ness disagrees with its being inner) give the first
    such fault alone, in that order and then in row order.  Rows that fit
    give every standardness violation: a content that is not an int in
    1..n, a duplicate, and a row or column that does not increase."""
    if not isinstance(rows, _ROWS):
        return [f"rows are of type {type(rows).__name__}, not a list or a tuple"]
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, _ROWS):
            return [f"row {i} is of type {type(row).__name__}, not a list or a tuple"]
    outer = shape.outer
    if len(rows) != len(outer):
        return [f"expected {len(outer)} rows, got {len(rows)}"]
    for i, row in enumerate(rows, start=1):
        if len(row) != outer[i - 1]:
            return [f"row {i} has {len(row)} entries, expected {outer[i - 1]}"]
        inner = shape.inner_at(i)
        for j, v in enumerate(row, start=1):
            if (v is None) != (j <= inner):
                return [f"placeholder/shape mismatch at cell ({i},{j})"]
    violations: list[str] = []
    n = shape.size
    cells = shape.cells()
    # The shape's entries in a grid bordered by one row and column, None
    # where there is no entry, so right and upper neighbours read by index.
    g: list[list[int | None]] = [[None] * (shape.width + 2) for _ in range(shape.n_rows + 2)]
    for (i, j) in cells:
        g[i][j] = rows[i - 1][j - 1]
    pos: list[Cell | None] = [(0, 0)] + [None] * n
    for (i, j) in cells:
        v = g[i][j]
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
            violations.append(f"content {v!r} at cell ({i},{j}) outside 1..{n}")
            # Dropped, so the order checks compare only contents that
            # passed this one; a non-integer may not compare at all.
            g[i][j] = None
        elif pos[v] is not None:
            violations.append(f"duplicate content {v} at cells ({pos[v][0]},{pos[v][1]}) and ({i},{j})")
        else:
            pos[v] = (i, j)
    for (i, j) in cells:
        v, right, above = g[i][j], g[i][j + 1], g[i + 1][j]
        if v is None:
            continue
        if right is not None and v >= right:
            violations.append(f"row not increasing: cell ({i},{j})={v} vs ({i},{j + 1})={right}")
        if above is not None and v >= above:
            violations.append(f"column not increasing: cell ({i},{j})={v} vs ({i + 1},{j})={above}")
    return violations


def make_tableau(shape: Shape, rows: list[list[int | None]]) -> Tableau:
    """`Tableau(shape, rows)`, nothing more.  No module of tabinv calls it;
    it stays exported only because the benchmark's workloads and its
    per-layer trace name it."""
    return Tableau(shape, rows)


def _from_positions(shape: Shape, pos: list[Cell]) -> Tableau:
    """The Tableau of shape with content c in cell pos[c] (pos[0] unused),
    None on the inner cells.  The one builder of a tableau read off the
    cell of each content: conjugate, rotate_complement, the image of each
    map of `inversion` and `foata.staircase_tableau`.  Like every
    construction, it validates."""
    rows: list[list[int | None]] = [[None] * p for p in shape.outer]
    for c in range(1, len(pos)):
        i, j = pos[c]
        rows[i - 1][j - 1] = c
    return Tableau(shape, rows)


def conjugate(t: Tableau) -> Tableau:
    """Transpose across the main diagonal; content of (i,j) moves to (j,i)."""
    return _from_positions(t.shape.conjugate(), [(j, i) for i, j in t.positions()])


def rotate_complement(t: Tableau) -> Tableau:
    """Rotate 180 degrees inside the bounding box and complement contents.

    Cell (i, j) goes to (R+1-i, C+1-j) for an R-row, C-column bounding box and
    content c becomes n+1-c (`_turned`).  An involution on tableaux whose
    shape has no leading empty rows or columns; on other shapes those rows
    and columns end up trailing and are trimmed (`_rotated_shape`).
    """
    return _from_positions(_rotated_shape(t.shape), _turned(t.shape, t.positions()))


def _turned(shape: Shape, pos: list[Cell]) -> list[Cell]:
    """The cells pos (pos[c] the cell of c) of a filling turned 180 degrees
    in the box of shape and complemented: n+1-c takes the turned cell of c.
    The one cell-turn formula of tabinv; turning twice in one box restores pos."""
    rows, cols = shape.n_rows + 1, shape.width + 1
    return [(0, 0)] + [(rows - i, cols - j) for i, j in reversed(pos[1:])]


def _rotated_shape(s: Shape) -> Shape:
    """s rotated 180 degrees inside its bounding box, with the empty rows
    that end up on top trimmed."""
    rows, cols = s.n_rows, s.width
    outer = [cols - s.inner_at(i) for i in range(rows, 0, -1)]
    inner = [cols - s.outer[i - 1] for i in range(rows, 0, -1)]
    while outer and outer[-1] == 0:
        outer.pop()
        inner.pop()
    while inner and inner[-1] == 0:
        inner.pop()
    return Shape(tuple(outer), tuple(inner))


# --- text format -----------------------------------------------------------
#
# Optional first line "shape: <shape-string>", then rows from bottom to top,
# space separated, with "." for absent inner cells.


def tableau_to_text(t: Filling) -> str:
    """The text format of a Filling, a Tableau included; it reads only the
    shape and the rows."""
    lines = [f"shape: {format_shape(t.shape)}"]
    for row in t.rows:
        lines.append(" ".join("." if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_tableau_text(text: str) -> Tableau:
    lines = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
    if not lines:
        raise TableauError(["empty tableau input"])
    declared: Shape | None = None
    if lines[0].lower().startswith("shape:"):
        declared = parse_shape(lines[0].split(":", 1)[1].strip())
        lines = lines[1:]
    raw: list[list[int | None]] = []
    for ln in lines:
        row: list[int | None] = []
        for tok in ln.split():
            if tok == ".":
                row.append(None)
            else:
                try:
                    row.append(_decimal(tok))
                except ValueError:
                    raise TableauError([f"bad token {tok!r} in tableau row"]) from None
        raw.append(row)
    if declared is None:
        outer, inner = [], []
        for row in raw:
            dots = 0
            while dots < len(row) and row[dots] is None:
                dots += 1
            outer.append(len(row))
            inner.append(dots)
        if any(a < b for a, b in zip(inner, inner[1:])):
            raise TableauError([f"the '.' placeholders do not form a partition: {tuple(inner)} by row from the bottom"])
        while inner and inner[-1] == 0:
            inner.pop()
        try:
            declared = Shape(tuple(outer), tuple(inner))
        except ShapeError as e:
            raise TableauError([str(e)]) from None
    if declared.size == 0:
        raise TableauError(["tableau has no cells"])
    return Tableau(declared, raw)


def tableau_to_json_dict(t: Filling) -> dict:
    """The JSON dict of a Filling, a Tableau included; it reads only the
    shape and the rows."""
    return {
        "shape": list(t.shape.outer),
        "inner": list(t.shape.inner),
        "rows": [list(row) for row in t.rows],
    }


def render(t: Tableau) -> str:
    """Aligned display rendering, top row first (French convention)."""
    width = max(len(str(t.n)), 1) + 1
    lines = []
    for row in reversed(t.rows):
        lines.append("".join(("." if v is None else str(v)).rjust(width) for v in row).rstrip())
    return "\n".join(lines) + "\n"
