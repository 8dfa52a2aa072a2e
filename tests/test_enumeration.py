"""Exhaustive generation, counting oracles, distribution polynomials, and
equidistribution reports."""

import pytest

import tabinv.enumeration as enumeration
from reference_syt import reference_syt
from tabinv import (
    AlgorithmError,
    DistributionPolynomial,
    brute_force_count,
    count_syt,
    distribution,
    enumerate_syt,
    equidistribution_report,
    format_shape,
    normalize_shape,
    parse_shape,
    partitions_of,
    skew_catalog,
    validate_filling,
)
from tabinv.enumeration import REPORT_VALUES, STATISTICS, statistic_values
from tabinv.model import Shape

INVOLUTIONS = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]

# Every skew shape of the catalog, every straight shape with n <= 8, and
# shapes with empty leading rows or columns.
ORACLE_SHAPES = (
    skew_catalog()
    + [Shape(lam) for n in range(1, 9) for lam in partitions_of(n)]
    + [parse_shape(text) for text in ("3,3/3,1", "3,3,3/3", "2,2/2", "4,4,2/4,1", "5,4,3/1")]
)


class TestCounting:
    @pytest.mark.parametrize(
        "shape_text,expected",
        [
            ("1", 1),
            ("2,2", 2),
            ("3,3", 5),
            ("3,2", 5),
            ("2,2,1", 5),
            ("4,3,2,1", 768),
            ("2,2/1", 2),
            ("3,2,1/2,1", 6),  # three free cells
            ("4,3,2,1/3,2,1", 24),  # staircase: unconstrained cells
        ],
    )
    def test_known_counts(self, shape_text, expected):
        s = parse_shape(shape_text)
        assert count_syt(s) == expected
        assert sum(1 for _ in enumerate_syt(s)) == expected

    def test_counts_sum_to_involution_numbers(self):
        for n in range(1, 8):
            total = sum(
                count_syt(parse_shape(",".join(map(str, lam))))
                for lam in partitions_of(n)
            )
            assert total == INVOLUTIONS[n]

    def test_brute_force_agrees(self):
        for text in ("3,2", "2,2,1", "4,1", "2,2/1", "3,3/2"):
            s = parse_shape(text)
            assert brute_force_count(s) == count_syt(s)

    def test_enumeration_yields_distinct_valid_tableaux(self):
        s = parse_shape("3,2,1")
        seen = set()
        for t in enumerate_syt(s):
            assert t.shape == s
            seen.add(t.rows)
        assert len(seen) == count_syt(s)

    def test_every_tableau_is_standard_distinct_and_counted(self):
        for s in ORACLE_SHAPES:
            seen = set()
            for t in enumerate_syt(s):
                assert validate_filling(s, t.rows) == [], (s, t.rows)
                seen.add(t.rows)
            assert len(seen) == count_syt(s), s

    def test_order_matches_the_recursive_reference(self):
        for s in ORACLE_SHAPES:
            assert [t.rows for t in enumerate_syt(s)] == [t.rows for t in reference_syt(s)], s

    def test_empty_shape_has_one_empty_tableau(self):
        assert [t.rows for t in enumerate_syt(Shape(()))] == [()]

    def test_placement_guard_rejects_a_cell_below_a_free_cell(self, monkeypatch):
        # A corner rule that forgets the row above: on 2,2, with 4 in (2,2)
        # and 3 in (1,2), it offers (1,1) to 2 while (2,1) is still free.
        def any_free_row(inner, length):
            return [i for i in range(len(inner) - 1) if inner[i] < length[i]]

        monkeypatch.setattr(enumeration, "_corner_rows", any_free_row)
        s = parse_shape("2,2")
        yielded = []
        with pytest.raises(AlgorithmError):
            for t in enumerate_syt(s):
                yielded.append(t)
        assert all(validate_filling(s, t.rows) == [] for t in yielded)


class TestPartitionsAndCatalog:
    def test_partitions_of_small(self):
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert partitions_of(5, max_rows=2) == [(5,), (4, 1), (3, 2)]
        assert partitions_of(5, max_part=2) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]

    def test_normalize_shape_strips_translation(self):
        s = parse_shape("3,3/3,1")
        norm = normalize_shape(s)
        assert format_shape(norm) == "2"
        assert count_syt(s) == count_syt(norm)

    def test_catalog_bounds_and_dedup(self):
        shapes = skew_catalog()
        assert len(shapes) == len({(s.outer, s.inner) for s in shapes})
        for s in shapes:
            assert 1 <= s.size <= 8
            assert s.n_rows <= 4
            assert s.width <= 4
            assert s == normalize_shape(s)

    def test_catalog_is_deterministic(self):
        assert skew_catalog() == skew_catalog()


class TestDistribution:
    def test_polynomial_from_values(self):
        p = DistributionPolynomial.from_values([0, 1, 1, 3])
        assert p.coefficients == (1, 2, 0, 1)
        assert p.total == 4

    def test_polynomial_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            DistributionPolynomial((1, 0))

    def test_known_distribution(self):
        # SYT of (2,2): maj values 2 and 4
        p = distribution(parse_shape("2,2"), "maj")
        assert p.coefficients == (0, 0, 1, 0, 1)

    def test_all_statistics_available(self):
        assert set(STATISTICS) == {"maj", "comaj", "inv", "cinv"}
        for name in STATISTICS:
            assert distribution(parse_shape("2,1"), name).total == 2

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            distribution(parse_shape("2,1"), "charge")

    def test_parallel_matches_serial(self):
        s = parse_shape("3,3,2")
        assert distribution(s, "inv", workers=2) == distribution(s, "inv")

    @pytest.mark.parametrize("text", ["4,3,1", "4,3,2/2", "4,4"])
    def test_parallel_values_equal_serial_in_order(self, text):
        s = parse_shape(text)
        names = list(REPORT_VALUES)
        assert statistic_values(s, names, workers=2) == statistic_values(s, names)

    def test_parallel_values_of_the_empty_shape(self):
        names = ["maj", "comaj", "inv", "cinv"]
        serial = statistic_values(Shape(()), names)
        assert serial == {name: [0] for name in names}
        assert statistic_values(Shape(()), names, workers=2) == serial


class TestEquidistribution:
    def test_straight_shape_global(self):
        report = equidistribution_report(parse_shape("3,2"))
        assert report.ok
        kinds = {(c.stat_a, c.stat_b, c.pinned_cell) for c in report.classes}
        assert ("inv", "maj", None) in kinds
        assert ("cinv", "comaj", None) in kinds

    def test_skew_shape_per_corner(self):
        report = equidistribution_report(parse_shape("2,2/1"))
        assert report.ok
        for c in report.classes:
            assert c.pinned_cell is not None

    def test_report_carries_polynomials(self):
        report = equidistribution_report(parse_shape("2,2"))
        for c in report.classes:
            assert c.poly_a.total == 2
