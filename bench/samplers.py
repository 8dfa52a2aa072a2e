"""Seeded input generators for the benchmark.

Every sampler draws from a caller-owned ``random.Random`` and returns plain
data: partitions as tuples and fillings as bottom-up rows with ``None`` on
inner cells, the format ``tabinv.make_tableau`` accepts.  The library only
ever sees the generated fillings, never the generators.
"""

from __future__ import annotations

import random
from typing import Iterator

Rows = list[list[int | None]]


def grow_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A partition of n grown one cell at a time, each cell added at a
    uniformly chosen addable position."""
    parts: list[int] = []
    for _ in range(n):
        addable = [
            i
            for i in range(len(parts) + 1)
            if i == 0 or (parts[i] if i < len(parts) else 0) < parts[i - 1]
        ]
        i = rng.choice(addable)
        if i == len(parts):
            parts.append(1)
        else:
            parts[i] += 1
    return tuple(parts)


def hook_walk_syt(rng: random.Random, shape: tuple[int, ...]) -> Rows:
    """A uniformly random SYT of a straight shape, by the Greene-Nijenhuis-Wilf
    hook walk (Adv. Math. 31, 1979).

    The largest remaining content goes to the corner where a walk ends that
    starts at a uniform cell and repeatedly jumps to a uniform cell of its
    hook (arm to the right, leg above, French convention).
    """
    parts = list(shape)
    rows: Rows = [[None] * p for p in shape]
    for content in range(sum(shape), 0, -1):
        cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
        i, j = rng.choice(cells)
        while True:
            arm = parts[i] - j - 1
            leg = sum(1 for r in range(i + 1, len(parts)) if parts[r] > j)
            if arm == 0 and leg == 0:
                break
            step = rng.randrange(arm + leg)
            if step < arm:
                j += 1 + step
            else:
                i += 1 + step - arm
        rows[i][j] = content
        parts[i] -= 1
        if parts[i] == 0:
            parts.pop()
    return rows


def skew_syt(rng: random.Random, n: int, removed: int) -> tuple[tuple[int, ...], tuple[int, ...], Rows]:
    """A skew SYT with n cells: a hook-walk SYT of n + removed cells loses
    `removed` randomly chosen inner corners, is translated so its bottom row
    and first column are occupied, and is restandardized."""
    outer = grow_partition(rng, n + removed)
    rows = hook_walk_syt(rng, outer)
    for _ in range(removed):
        corners = [
            (i, j)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v is not None
            and (i == 0 or rows[i - 1][j] is None)
            and (j == 0 or row[j - 1] is None)
        ]
        i, j = rng.choice(corners)
        rows[i][j] = None
    while all(v is None for v in rows[0]):
        rows.pop(0)
    while all(v is None for v in rows[-1]):
        rows.pop()
    shift = min(_leading_none(row) for row in rows if any(v is not None for v in row))
    rows = [row[shift:] for row in rows]
    rank = {v: r for r, v in enumerate(sorted(v for row in rows for v in row if v is not None), 1)}
    rows = [[None if v is None else rank[v] for v in row] for row in rows]
    inner = [_leading_none(row) for row in rows]
    while inner and inner[-1] == 0:
        inner.pop()
    return tuple(len(row) for row in rows), tuple(inner), rows


def _leading_none(row: list[int | None]) -> int:
    k = 0
    while k < len(row) and row[k] is None:
        k += 1
    return k


def permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def request_blocks(seed: int) -> Iterator[list[tuple]]:
    """The bijection_random request stream, in blocks of 46 requests.

    A block holds one tableau of every size 20..60, each a straight
    hook-walk SYT or a skew SYT with an even chance, and one permutation of
    every length 8..12, in random order: about 45 % straight, 45 % skew and
    10 % permutations.  Stratifying the sizes keeps the work per block alike
    across blocks and seeds.  Requests are ("tableau", outer, inner, rows)
    or ("perm", permutation).
    """
    rng = random.Random(seed)
    while True:
        sizes = list(range(20, 61))
        rng.shuffle(sizes)
        block: list[tuple] = []
        for n in sizes:
            if rng.random() < 0.5:
                outer = grow_partition(rng, n)
                block.append(("tableau", outer, (), hook_walk_syt(rng, outer)))
            else:
                block.append(("tableau", *skew_syt(rng, n, rng.randint(1, n // 4))))
        block += [("perm", permutation(rng, n)) for n in range(8, 13)]
        rng.shuffle(block)
        yield block
