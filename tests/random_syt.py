"""Seeded random standard Young tableaux for tests far past exhaustive
sizes, and Stanley's q-hook-length formula and Aitken's determinant as
enumeration-free oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from tabinv import Shape, Tableau, make_tableau


def random_partition(rng: random.Random, n: int) -> list[int]:
    """A partition of n grown one cell at a time at a random addable cell."""
    parts: list[int] = []
    for _ in range(n):
        addable = [i for i in range(len(parts) + 1) if i == 0 or parts[i - 1] > (parts[i] if i < len(parts) else 0)]
        i = rng.choice(addable)
        if i == len(parts):
            parts.append(0)
        parts[i] += 1
    return parts


def hook_walk_rows(rng: random.Random, parts: list[int]) -> list[list[int]]:
    """A uniform SYT of a straight shape, bottom row first, by the
    Greene-Nijenhuis-Wilf hook walk: from a uniform cell, jump to a uniform
    other cell of its hook until a corner is reached; the corner gets the
    largest unplaced content and leaves the shape."""
    parts = list(parts)
    rows = [[0] * p for p in parts]
    for v in range(sum(parts), 0, -1):
        i, j = rng.choice([(i, j) for i, p in enumerate(parts) for j in range(p)])
        while True:
            arm = parts[i] - j - 1
            leg = sum(1 for p in parts[i + 1 :] if p > j)
            if arm + leg == 0:
                break
            step = rng.randrange(arm + leg)
            if step < arm:
                j += 1 + step
            else:
                i += 1 + step - arm
        rows[i][j] = v
        parts[i] -= 1
        while parts and parts[-1] == 0:
            parts.pop()
    return rows


def straight_syt(rng: random.Random, n: int) -> Tableau:
    parts = random_partition(rng, n)
    return make_tableau(Shape(tuple(parts)), hook_walk_rows(rng, parts))


def skew_syt(rng: random.Random, n: int, removed: int) -> Tableau:
    """A skew SYT with n cells: a straight SYT of n + removed cells loses
    `removed` random inner corners and is restandardized.  The shape is
    left as it falls, so it may start with empty rows or columns."""
    parts = random_partition(rng, n + removed)
    rows: list[list[int | None]] = hook_walk_rows(rng, parts)
    for _ in range(removed):
        corners = [
            (i, j)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v is not None and (i == 0 or rows[i - 1][j] is None) and (j == 0 or row[j - 1] is None)
        ]
        i, j = rng.choice(corners)
        rows[i][j] = None
    rank = {v: r for r, v in enumerate(sorted(v for row in rows for v in row if v is not None), 1)}
    rows = [[None if v is None else rank[v] for v in row] for row in rows]
    inner = [sum(1 for v in row if v is None) for row in rows]
    while inner and inner[-1] == 0:
        inner.pop()
    return make_tableau(Shape(tuple(parts), tuple(inner)), rows)


def q_hook_maj(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the sum of q^maj(T) over the SYT of a straight shape,
    q^b [n]_q! / prod_u [h(u)]_q with b = sum (i-1) parts_i (Stanley, EC2,
    Cor. 7.21.5)."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    hooks = [parts[i] - j + conj[j] - i - 1 for i in range(len(parts)) for j in range(parts[i])]
    poly = [1]
    for m in range(1, sum(parts) + 1):  # times 1 - q^m
        poly += [0] * m
        for e in range(len(poly) - 1, m - 1, -1):
            poly[e] -= poly[e - m]
    for h in hooks:  # exact division by 1 - q^h
        for e in range(h, len(poly)):
            poly[e] += poly[e - h]
    while poly[-1] == 0:
        poly.pop()
    return tuple([0] * sum(i * p for i, p in enumerate(parts)) + poly)


def aitken_count(outer: tuple[int, ...], inner: tuple[int, ...] = ()) -> int:
    """Number of SYT of the skew shape outer/inner, n! det[1/(outer_i -
    inner_j - i + j)!] with 1/m! = 0 for m < 0 (Aitken, 1943), the
    determinant taken exactly over the rationals."""
    k = len(outer)
    inner = tuple(inner) + (0,) * (k - len(inner))
    m = [
        [Fraction(1, factorial(d)) if (d := outer[i] - inner[j] - i + j) >= 0 else Fraction(0) for j in range(k)]
        for i in range(k)
    ]
    det = Fraction(factorial(sum(outer) - sum(inner)))
    for c in range(k):  # Gaussian elimination
        pivot = next((r for r in range(c, k) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, k):
            f = m[r][c] / m[c][c]
            for j in range(c, k):
                m[r][j] -= f * m[c][j]
    assert det.denominator == 1, det
    return int(det)
