"""Checks of the benchmark's input generators and oracles.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import samplers  # noqa: E402
import tabinv  # noqa: E402


def as_tableau(outer, inner, rows):
    return tabinv.make_tableau(tabinv.Shape(outer, inner), rows)


def test_generated_tableaux_pass_make_tableau():
    rng = random.Random(7)
    for n in (1, 2, 5, 20, 60):
        outer = samplers.grow_partition(rng, n)
        assert sum(outer) == n
        t = as_tableau(outer, (), samplers.hook_walk_syt(rng, outer))
        assert t.n == n
        for removed in (1, n // 4 or 1, n // 2 or 1):
            outer, inner, rows = samplers.skew_syt(rng, n, removed)
            t = as_tableau(outer, inner, rows)
            assert t.n == n
            assert t.shape == tabinv.normalize_shape(t.shape)


def test_request_blocks_are_valid_and_stratified():
    block = next(samplers.request_blocks(3))
    sizes = sorted(as_tableau(*req[1:]).n for req in block if req[0] == "tableau")
    perms = sorted(len(req[1]) for req in block if req[0] == "perm")
    assert sizes == list(range(20, 61))
    assert perms == list(range(8, 13))
    for req in block:
        if req[0] == "perm":
            assert sorted(req[1]) == list(range(1, len(req[1]) + 1))
    straight = sum(1 for req in block if req[0] == "tableau" and not req[2])
    assert 0 < straight < 41


def test_samplers_are_deterministic_per_seed():
    first = list(itertools.islice(samplers.request_blocks(11), 2))
    again = list(itertools.islice(samplers.request_blocks(11), 2))
    other = list(itertools.islice(samplers.request_blocks(12), 2))
    assert first == again
    assert first != other


def test_hook_walk_is_uniform_on_shape_32():
    rng = random.Random(2024)
    draws = 5000
    counts = Counter(
        tuple(map(tuple, samplers.hook_walk_syt(rng, (3, 2)))) for _ in range(draws)
    )
    assert len(counts) == 5 == oracles.hook_count((3, 2))
    expected = draws / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 18.47  # chi-square, 4 degrees of freedom, p = 0.001


def test_oracles_match_the_library_on_small_shapes():
    for n in range(1, 7):
        for parts in tabinv.partitions_of(n):
            shape = tabinv.Shape(parts)
            assert oracles.hook_count(parts) == tabinv.count_syt(shape)
            assert oracles.q_hook_maj(parts) == tabinv.distribution(shape, "maj").coefficients
