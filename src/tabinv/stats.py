"""Descent-based statistics on tableaux: Des, maj, comaj.

Each is defined once on `pos`, the list with pos[c] the cell of content c
(index 0 unused, as `Tableau.positions` returns it); the Tableau functions
read `t.positions()` and call it.
"""

from __future__ import annotations

from .model import Cell, Tableau


def descents(pos: list[Cell]) -> list[int]:
    """Indices i, ascending, with i+1 in a strictly higher row than i."""
    return [i for i in range(1, len(pos) - 1) if pos[i + 1][0] > pos[i][0]]


def maj_of(pos: list[Cell]) -> int:
    """Sum of the descents."""
    return sum(descents(pos))


def comaj_of(pos: list[Cell]) -> int:
    """Sum of n - i over the descents i."""
    n = len(pos) - 1
    return sum(n - i for i in descents(pos))


def descent_set(t: Tableau) -> set[int]:
    """Indices i with i+1 in a strictly higher row than i."""
    return set(descents(t.positions()))


def maj(t: Tableau) -> int:
    """Sum of the descents of t."""
    return maj_of(t.positions())


def comaj(t: Tableau) -> int:
    """Sum of n - i over descents i of t."""
    return comaj_of(t.positions())
