"""Twelve end-to-end verification criteria, one test each.

Each test is exhaustive over its stated range; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from conftest import CLI_CASES, GOLDEN, run_cli_case
from reference_syt import brute_force_count, remove_cell
from tabinv import (
    bridge_check,
    cinv_statistic,
    classify_side,
    comaj,
    conjugate,
    count_syt,
    descent_set,
    enumerate_syt,
    foata,
    foata_inverse,
    format_shape,
    forward_blocks,
    inv_code,
    inv_statistic,
    make_tableau,
    maj,
    parse_permutation,
    parse_shape,
    partitions_of,
    perm_inv,
    perm_inverse,
    perm_maj,
    perm_phi_direct,
    perm_phi_stages,
    phi,
    psi,
    psi_k,
    skew_catalog,
)
from tabinv.inversion import BELOW
from tabinv.model import Shape, Tableau


def straight_shapes(n: int) -> list[Shape]:
    return [parse_shape(",".join(map(str, lam))) for lam in partitions_of(n)]


@lru_cache(maxsize=None)
def catalog_reports():
    """One pass over the skew catalog computing every per-class comparison."""
    from tabinv import equidistribution_report

    return [(s, equidistribution_report(s)) for s in skew_catalog()]


def delete_top(t: Tableau) -> Tableau:
    """Remove the corner cell holding the largest content."""
    cell = t.positions()[t.n]
    sub = remove_cell(t.shape, cell)
    rows = [list(r) for r in t.rows]
    rows[cell[0] - 1][cell[1] - 1] = None
    rows = [r[: sub.outer[i]] for i, r in enumerate(rows[: sub.n_rows])]
    return make_tableau(sub, rows)


def test_criterion_01_worked_example_vectors():
    sigma = parse_permutation("4137562")
    image = parse_permutation("7143562")
    assert foata(sigma) == image
    assert perm_maj(sigma) == 11 == perm_inv(image)
    assert foata_inverse(image) == sigma
    # intermediate word after absorbing the first five letters: the map
    # only compares letters, so standardize the prefix, apply, undo
    prefix = (4, 1, 3, 7, 5)
    rank = {v: i + 1 for i, v in enumerate(sorted(prefix))}
    unrank = {r: v for v, r in rank.items()}
    std_image = foata(tuple(rank[v] for v in prefix))
    assert tuple(unrank[r] for r in std_image) == (7, 1, 4, 3, 5)
    chain = [
        "346251",
        "346251",
        "146352",
        "146253",
        "256143",
    ]
    stages = perm_phi_stages(parse_permutation("346251"))
    assert [p for p in stages] == [parse_permutation(c) for c in chain]
    assert foata(parse_permutation("641253")) == parse_permutation("416523")
    assert perm_inverse(perm_phi_direct(parse_permutation("346251"))) == (
        parse_permutation("416523")
    )


def test_criterion_02_statistic_matches_major_index_of_image():
    for n in range(1, 11):
        for s in straight_shapes(n):
            for t in enumerate_syt(s):
                assert inv_statistic(t) == maj(psi(t)), (format_shape(s), t.rows)


def test_criterion_03_bijectivity():
    for n in range(1, 11):
        for s in straight_shapes(n):
            images = set()
            total = 0
            for t in enumerate_syt(s):
                image = psi(t)
                assert phi(image) == t
                images.add(image.rows)
                total += 1
            assert len(images) == total == count_syt(s)


def test_criterion_04_distribution_identity():
    from tabinv import distribution

    for n in range(1, 11):
        for s in straight_shapes(n):
            assert distribution(s, "inv") == distribution(s, "maj"), format_shape(s)


def test_criterion_05_descent_lemma():
    for n in range(3, 10):
        for s in straight_shapes(n):
            for t in enumerate_syt(s):
                for k in range(3, n + 1):
                    below = classify_side(t, k, (1, 1)) == BELOW
                    assert below == ((k - 1) in descent_set(psi_k(t, k)))


def test_criterion_06_block_geometry_recurrence_conjugation():
    for n in range(3, 10):
        for s in straight_shapes(n):
            for t in enumerate_syt(s):
                for k in range(3, n + 1):
                    below = classify_side(t, k, (1, 1)) == BELOW
                    for block in forward_blocks(t, k).blocks:
                        i0, j0 = block[0]
                        for (i, j) in block[1:]:
                            if below:
                                assert i > i0 and j < j0
                            else:
                                assert i < i0 and j > j0
                delta = (n - 1) if classify_side(t, n, (1, 1)) == BELOW else 0
                assert inv_statistic(t) == inv_statistic(delete_top(psi_k(t, n))) + delta
    for n in range(1, 11):
        for s in straight_shapes(n):
            for t in enumerate_syt(s):
                assert inv_statistic(t) + inv_statistic(conjugate(t)) == n * (n - 1) // 2


def test_criterion_07_skew_equidistribution():
    for s, report in catalog_reports():
        for c in report.classes:
            if (c.stat_a, c.stat_b) == ("inv", "maj"):
                assert c.ok, (
                    f"shape {format_shape(s)} cell {c.pinned_cell}: "
                    f"{c.poly_a.coefficients} vs {c.poly_b.coefficients}"
                )


def test_criterion_08_comaj_variant_equidistribution():
    for s, report in catalog_reports():
        for c in report.classes:
            if (c.stat_a, c.stat_b) == ("cinv", "comaj"):
                assert c.ok, (
                    f"shape {format_shape(s)} cell {c.pinned_cell}: "
                    f"{c.poly_a.coefficients} vs {c.poly_b.coefficients}"
                )


def test_criterion_09_permutation_map():
    for n in range(1, 9):
        seen = set()
        for p in permutations(range(1, n + 1)):
            q = foata(p)
            assert perm_maj(p) == perm_inv(q)
            assert foata_inverse(q) == p
            seen.add(q)
        assert len(seen) == len(list(permutations(range(1, n + 1))))
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            assert bridge_check(p).ok


def test_criterion_10_counting_oracles():
    for s, _ in catalog_reports():
        assert sum(1 for _ in enumerate_syt(s)) == count_syt(s)
    for n in range(1, 7):
        for s in straight_shapes(n):
            assert brute_force_count(s) == count_syt(s)
    for n in range(1, 9):
        involutions = sum(
            1
            for p in permutations(range(1, n + 1))
            if all(p[p[i] - 1] == i + 1 for i in range(n))
        )
        assert sum(count_syt(s) for s in straight_shapes(n)) == involutions


def test_criterion_11_inversion_code():
    for n in range(1, 11):
        for s in straight_shapes(n):
            for t in enumerate_syt(s):
                code = inv_code(t)
                assert len(code) == n
                assert all(0 <= code[k - 1] <= k - 1 for k in range(1, n + 1))
                assert sum(code) == inv_statistic(t)


def test_criterion_12_cli_golden(capsys):
    for golden_name, argv in CLI_CASES:
        out = run_cli_case(argv, capsys)
        assert out == (GOLDEN / golden_name).read_text(), golden_name
