"""The recursive SYT generator that `enumeration.enumerate_syt` replaced,
kept as the reference for its order: the largest content goes into each
removable corner in descending row order, the rest of the shape is filled
recursively, and every filling is validated in full."""

from __future__ import annotations

from typing import Iterator

from tabinv import Shape, Tableau, corner_cells, make_tableau
from tabinv.model import Cell


def _assignments(s: Shape, k: int) -> Iterator[dict[Cell, int]]:
    if k == 0:
        yield {}
        return
    for corner in sorted(corner_cells(s), key=lambda c: -c[0]):
        for partial in _assignments(s.remove_cell(corner), k - 1):
            full = dict(partial)
            full[corner] = k
            yield full


def reference_syt(s: Shape) -> Iterator[Tableau]:
    for assignment in _assignments(s, s.size):
        rows: list[list[int | None]] = [[None] * p for p in s.outer]
        for (i, j), v in assignment.items():
            rows[i - 1][j - 1] = v
        yield make_tableau(s, rows)
