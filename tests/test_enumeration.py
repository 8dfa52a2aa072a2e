"""Exhaustive generation, counting oracles, distribution polynomials, and
equidistribution reports."""

import concurrent.futures
import sys
import tracemalloc
from math import comb

import pytest

import random_syt
import tabinv.enumeration as enumeration
import tabinv.stats as stats
from reference_syt import brute_force_count, reference_syt
from tabinv import (
    AlgorithmError,
    DistributionPolynomial,
    cinv_statistic,
    comaj,
    count_syt,
    distribution,
    enumerate_syt,
    equidistribution_report,
    format_shape,
    inv_statistic,
    maj,
    normalize_shape,
    parse_shape,
    partitions_of,
    skew_catalog,
    validate_filling,
)
from tabinv.cli import main
from tabinv.enumeration import REPORT_VALUES, STATISTICS, statistic_values
from tabinv.model import Shape
from tabinv.stats import comaj_of, maj_of

INVOLUTIONS = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]

# Every skew shape of the catalog, every straight shape with n <= 8, and
# shapes with empty leading rows or columns.
ORACLE_SHAPES = (
    skew_catalog()
    + [Shape(lam) for n in range(1, 9) for lam in partitions_of(n)]
    + [parse_shape(text) for text in ("3,3/3,1", "3,3,3/3", "2,2/2", "4,4,2/4,1", "5,4,3/1")]
)


def _copied(fillings):
    """The fillings of `_fillings`, each copied off the generator's live lists."""
    return [([list(row) for row in rows], list(pos), *sums) for rows, pos, *sums in fillings]


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

    @pytest.mark.parametrize(
        "shape_text,expected",
        [
            ("520", 1),
            ("519,1", 519),
            ("4000", 1),
            pytest.param("250,250", comb(500, 250) // 251, id="250,250-catalan"),
        ],
    )
    def test_counts_past_the_recursion_limit(self, shape_text, expected):
        # One corner removal per cell makes the recurrence 520 levels deep,
        # which a recursive walk cannot take under the default recursion
        # limit (1000): it raised RecursionError from about 500 cells.
        # 250,250 has the Catalan number C_250 of SYT.
        assert count_syt(parse_shape(shape_text)) == expected

    def test_counts_equal_aitkens_determinant(self):
        # An oracle that shares nothing with the enumerator's corner rule.
        shapes = skew_catalog(10, 5, 5) + [parse_shape(t) for t in ("250,250", "30,30,30,30/10,5", "4000")]
        for s in shapes:
            assert count_syt(s) == random_syt.aitken_count(s.outer, s.inner), format_shape(s)

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
        # The statistics read the generator's positions unvalidated, so the
        # guard is the only check in front of them (for maj, the only check
        # at all: without the guard it returns six values for two SYT).
        for names in (["maj"], ["maj", "inv", "cinv"]):
            with pytest.raises(AlgorithmError):
                statistic_values(s, names)
        assert main(["enumerate", "--shape", "2,2", "--check"]) == 3

    def test_placement_guard_rejects_a_cell_left_of_a_free_cell(self, monkeypatch):
        # A placement rule that skips a cell: on 3 it offers (1,2) to 3
        # while (1,3) is still free.  Whether a cell has a right neighbour is
        # fixed per move, but the test of that neighbour runs on the live row.
        placements = enumeration._placements

        def skipping(inner, lengths):
            return [(i, after[:i] + (after[i] - 1,) + after[i + 1 :]) for i, after in placements(inner, lengths)]

        monkeypatch.setattr(enumeration, "_placements", skipping)
        with pytest.raises(AlgorithmError, match=r"^content 3 offered to cell \(1,2\) "):
            statistic_values(parse_shape("3"), ["maj"])

    @pytest.mark.parametrize("count", [1, 4, 64])
    @pytest.mark.parametrize("text", ["4,3,1", "4,3,2/2", "2,2/1", "3,3/3", ""])
    def test_prefix_chunks_join_into_the_serial_pass(self, text, count):
        # 3,3/3 is not normalised: its bottom row is all inner cells.
        s = parse_shape(text) if text else Shape(())

        chunks = [_copied(enumeration._fillings(s, prefix)) for prefix in enumeration._prefixes(s, count)]
        assert [filling for chunk in chunks for filling in chunk] == _copied(enumeration._fillings(s))

    def test_each_state_gets_its_moves_once_per_pass(self, monkeypatch):
        # 5,4,3,2 has 90 free-region states; the filled one has no moves.
        # The walk follows each move's link to the next state's moves, so a
        # pass works out each state's moves once, however often it returns.
        states = []
        placements = enumeration._placements

        def counting(inner, lengths):
            states.append(lengths)
            return placements(inner, lengths)

        monkeypatch.setattr(enumeration, "_placements", counting)
        s = Shape((5, 4, 3, 2))
        serial = _copied(enumeration._fillings(s))
        assert len(states) == len(set(states)) == 89
        joined = []
        for prefix in enumeration._prefixes(s, 16):
            states.clear()
            joined += _copied(enumeration._fillings(s, prefix))
            assert len(states) == len(set(states)) <= 89, prefix
        assert len(serial) == 48048
        assert joined == serial

    @pytest.mark.parametrize("count", [1, 4, 64])
    def test_every_chunk_keeps_the_descent_sums(self, count):
        # The sums a chunk starts from are those of its forced prefix moves.
        for s in skew_catalog(7):
            for prefix in enumeration._prefixes(s, count):
                for rows, pos, maj_sum, comaj_sum in enumeration._fillings(s, prefix):
                    assert (maj_sum, comaj_sum) == (maj_of(pos), comaj_of(pos)), (s, prefix, rows)

    @pytest.mark.parametrize(
        "text,prefix,content,cell",
        [
            ("2,2", (0,), 4, (1, 2)),  # (2,2) above it is still free
            ("4,3,1", (0, 0), 7, (1, 3)),  # so is (2,3) above it
            ("4,3,1", (2, 1, 0, 0, 0), 4, (1, 2)),  # and (2,2), after four corners
            ("3,3/3", (0,), 3, (1, 3)),  # row 1 has no free cell
        ],
    )
    def test_placement_guard_rejects_a_prefix_row_that_is_not_a_corner(self, text, prefix, content, cell):
        message = rf"^content {content} offered to cell \({cell[0]},{cell[1]}\) "
        with pytest.raises(AlgorithmError, match=message):
            next(enumeration._fillings(parse_shape(text), prefix))


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

    def test_normalize_shape_of_no_cells_is_the_empty_shape(self):
        assert normalize_shape(Shape((2,), (2,))) == Shape((), ())
        assert normalize_shape(Shape((3, 3, 1), (3, 3, 1))) == Shape((), ())

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

    def test_catalog_size_and_ends(self):
        shapes = skew_catalog()
        assert len(shapes) == 486
        assert [format_shape(s) for s in shapes[:3]] == ["1", "1,1", "2"]
        assert format_shape(shapes[-1]) == "4,4,4,4/3,3,2"


class TestDistribution:
    def test_polynomial_from_values(self):
        p = DistributionPolynomial.from_values([0, 1, 1, 3])
        assert p.coefficients == (1, 2, 0, 1)
        assert p.total == 4
        # A negative value is an error, not a count at the top exponent,
        # where indexing by -1 would put it.
        with pytest.raises(ValueError, match=r"^values must be nonnegative, got -1$"):
            DistributionPolynomial.from_values([2, -1])

    def test_polynomial_of_no_values_has_no_coefficient(self):
        p = DistributionPolynomial.from_values([])
        assert p == DistributionPolynomial(()) and p.total == 0
        assert DistributionPolynomial.from_values([0]).coefficients == (1,)

    def test_polynomial_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            DistributionPolynomial((1, 0))

    @pytest.mark.parametrize("coefficients", [(1, -1), (-1,), (1, 2.0), (True,), (0, False, 1), ("1",)])
    def test_polynomial_rejects_a_coefficient_that_is_not_a_nonnegative_int(self, coefficients):
        with pytest.raises(ValueError, match=r"^coefficients must be nonnegative integers, got "):
            DistributionPolynomial(coefficients)

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_value_name_is_rejected_before_enumerating(self, workers, monkeypatch):
        def no_pass(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(enumeration, "_fillings", no_pass)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pass)
        expected = (
            r"^unknown statistic 'charge'; choose from \['cinv', 'comaj', 'inv', 'maj'\]"
            r" or the pins \['cell_1', 'cell_n'\]$"
        )
        for names in (["charge"], ["maj", "charge"]):
            with pytest.raises(ValueError, match=expected):
                statistic_values(parse_shape("3,2"), names, workers)

    def test_parallel_matches_serial(self):
        s = parse_shape("3,3,2")
        assert distribution(s, "inv", workers=2) == distribution(s, "inv")

    @pytest.mark.parametrize("text", ["4,3,1", "4,3,2/2", "4,4"])
    def test_parallel_values_equal_serial_in_order(self, text):
        s = parse_shape(text)
        names = list(REPORT_VALUES)
        assert statistic_values(s, names, workers=2) == statistic_values(s, names)

    @pytest.mark.parametrize(
        "text,workers,cpus,started",
        [("3,2", 100_000, 2, 2), ("3,2", 100_000, 64, 5), ("4,3,1", 3, 64, 3), ("4,3,1", 100_000, 1, None)],
    )
    def test_worker_count_is_bounded(self, text, workers, cpus, started, monkeypatch):
        # An in-process pool records max_workers; no process is started.
        pools, asked = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        prefixes = enumeration._prefixes

        def recording_prefixes(s, count):
            asked.append(count)
            return prefixes(s, count)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(enumeration, "_prefixes", recording_prefixes)
        monkeypatch.setattr(enumeration, "_available_cpus", lambda: cpus)
        s, names = parse_shape(text), list(REPORT_VALUES)
        assert statistic_values(s, names, workers) == statistic_values(s, names)
        assert pools == ([] if started is None else [started])
        assert asked == ([] if started is None else [8 * min(workers, cpus)])

    def test_parallel_values_of_the_empty_shape(self):
        names = ["maj", "comaj", "inv", "cinv"]
        serial = statistic_values(Shape(()), names)
        assert serial == {name: [0] for name in names}
        assert statistic_values(Shape(()), names, workers=2) == serial

    def test_pins_and_report_of_the_empty_shape(self):
        assert statistic_values(Shape(()), ["cell_n", "cell_1"]) == {"cell_n": [(0, 0)], "cell_1": [(0, 0)]}
        assert equidistribution_report(Shape(())).ok


# The public Tableau-level functions that statistic_values stands in for.
TABLEAU_VALUES = {
    "inv": inv_statistic,
    "maj": maj,
    "cinv": cinv_statistic,
    "comaj": comaj,
    "cell_n": lambda t: t.positions()[t.n],
    "cell_1": lambda t: t.positions()[min(t.n, 1)],
}


def tableau_values(s):
    tableaux = list(enumerate_syt(s))
    return {name: [fn(t) for t in tableaux] for name, fn in TABLEAU_VALUES.items()}


class TestValuesFromPositions:
    def test_serial_values_equal_the_tableau_functions(self):
        assert set(TABLEAU_VALUES) == set(REPORT_VALUES)
        shapes = (
            skew_catalog()
            + [parse_shape(text) for text in ("2,2/2", "3,3/1,1", "3,3,3/3", "3,3,1/1,1,1", "4,4,2/4,1", "3,2/3")]
            + [Shape(())]
        )
        for s in shapes:
            assert statistic_values(s, list(REPORT_VALUES)) == tableau_values(s), s

    def test_a_pass_calls_no_descent_rescan(self, monkeypatch):
        # maj_of and comaj_of raise in every tabinv module that holds them,
        # so maj and comaj must come from the sums the walk keeps: serially
        # and in prefix chunks, which start from their forced moves' sums.
        texts = ("4,3,2,1", "5,3,1", "4,3,2/2", "5,4,3/1", "3,3/3", "2,2/1")
        shapes = [parse_shape(text) for text in texts] + [Shape(())]
        expected = {}
        for s in shapes:
            tableaux = list(enumerate_syt(s))
            expected[s] = {"maj": [maj(t) for t in tableaux], "comaj": [comaj(t) for t in tableaux]}

        def rescan(pos):
            raise AssertionError("a descent rescan")

        for name in ("maj_of", "comaj_of"):
            original = getattr(stats, name)
            for module in [m for key, m in sys.modules.items() if key.partition(".")[0] == "tabinv"]:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, rescan)
        for s in shapes:
            assert statistic_values(s, ["maj", "comaj"]) == expected[s], s
            chunks = [enumeration._prefix_values(s, prefix, ["maj", "comaj"]) for prefix in enumeration._prefixes(s, 4)]
            assert {name: [v for chunk in chunks for v in chunk[name]] for name in expected[s]} == expected[s], s
            if s.is_straight and s.size:
                assert distribution(s, "maj").coefficients == random_syt.q_hook_maj(s.outer), s
            assert distribution(s, "comaj") == DistributionPolynomial.from_values(expected[s]["comaj"]), s

    def test_inv_and_cinv_keep_no_path_per_pivot(self):
        # The pass counts inv and cinv without recording the paths, so it
        # holds O(n + width) entries per SYT.  400/1 has one SYT of 399
        # cells; recording one heights list of width + 1 entries per pivot
        # took about 1.3 MB there.
        s = parse_shape("400/1")
        statistic_values(s, ["inv", "cinv"])  # leaves out one-time allocations
        tracemalloc.start()
        try:
            values = statistic_values(s, ["inv", "cinv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == {"inv": [0], "cinv": [0]}
        assert peak < 256 * 1024

    @pytest.mark.parametrize("text", ["4,3,1", "4,3,2/2", "4,4"])
    def test_parallel_values_equal_the_tableau_functions(self, text):
        s = parse_shape(text)
        assert statistic_values(s, list(REPORT_VALUES), workers=2) == tableau_values(s)


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
