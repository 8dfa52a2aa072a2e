"""Lattice paths, side classification, cycling maps, and the inversion
statistic, including its north-east (comaj) counterpart."""

import functools
import itertools
import random
import re

import pytest

import random_syt
from pass_values import pass_values
from reference_syt import reference_path, rotate_complement_into, tableau_from_rows
from tabinv import (
    ABOVE,
    BELOW,
    AlgorithmError,
    Filling,
    LatticePath,
    cinv_statistic,
    classify_side,
    comaj,
    comaj_map,
    descent_set,
    distribution,
    enumerate_syt,
    forward_blocks,
    inv_code,
    inv_statistic,
    inversion_pairs,
    inversion_path,
    inversion_path_set,
    maj,
    map_trace,
    ne_blocks,
    ne_inversion_path,
    parse_shape,
    phi,
    phi_k,
    psi,
    psi_k,
    rotate_complement,
    validate_filling,
)
import tabinv.inversion as inversion
import tabinv.model as model
from tabinv.inversion import _Grid
from tabinv.enumeration import skew_catalog, statistic_counts
from tabinv.model import Shape, Tableau, TableauError

T22 = tableau_from_rows([[1, 2], [3, 4]])
T22B = tableau_from_rows([[1, 3], [2, 4]])
SKEW1 = Tableau(parse_shape("2,2/1"), [[None, 1], [2, 3]])
SKEW2 = Tableau(parse_shape("2,2/1"), [[None, 2], [1, 3]])


class TestInversionPath:
    def test_top_content_path(self):
        p = inversion_path(T22, 4)
        assert p.start == (1, 1)
        assert p.steps == "WS"

    def test_row_one_path_runs_straight(self):
        p = inversion_path(tableau_from_rows([[1, 2, 3]]), 3)
        assert p.start == (2, 0)
        assert p.steps == "WW"

    def test_column_one_path_runs_straight(self):
        p = inversion_path(tableau_from_rows([[1], [2], [3]]), 3)
        assert p.start == (0, 2)
        assert p.steps == "SS"

    def test_skew_path_uses_neighbor_comparison(self):
        assert inversion_path(SKEW1, 3).steps == "WS"
        assert inversion_path(SKEW2, 3).steps == "SW"

    def test_out_of_range_content(self):
        with pytest.raises(ValueError):
            inversion_path(T22, 5)

    def test_paths_follow_the_corner_rule(self):
        # The reference walks the rule on the tableau's contents, with no
        # grid; on skew shapes it meets absent neighbours, where both stop
        # and run South then West for SW paths, North then East for NE.
        for s in skew_catalog(6):
            for t in enumerate_syt(s):
                for k in range(1, t.n + 1):
                    assert inversion_path(t, k) == reference_path(t, k), (t.rows, k)
                    assert ne_inversion_path(t, k) == reference_path(t, k, north_east=True), (t.rows, k)


class TestSideClassification:
    def test_sides_around_a_path(self):
        assert inversion_path(T22, 4) == LatticePath((1, 1), "WS")
        assert classify_side(T22, 4, (1, 1)) == BELOW
        assert classify_side(T22, 4, (1, 2)) == BELOW
        assert classify_side(T22, 4, (2, 1)) == ABOVE
        assert classify_side(T22, 4, (2, 2)) == BELOW  # the anchor cell itself

    def test_cells_east_of_start_are_below(self):
        t = tableau_from_rows([[1], [2], [3]])
        assert inversion_path(t, 2) == LatticePath((0, 1), "S")
        assert classify_side(t, 2, (1, 1)) == BELOW
        assert classify_side(t, 2, (2, 1)) == BELOW
        assert classify_side(t, 2, (3, 1)) == ABOVE

    def test_no_cell_lies_south_west_of_a_stop_point(self):
        # Each path stops at its first absent neighbour.  No cell of the
        # shape lies weakly south-west of that point (north-east of it, for
        # an NE path), so the tail past it decides no side and no statistic.
        moves = {"S": (0, -1), "W": (-1, 0), "N": (0, 1), "E": (1, 0)}
        for s in skew_catalog(6):
            cells = s.cells()
            for t in enumerate_syt(s):
                for k in range(1, t.n + 1):
                    for path, beyond in (
                        (inversion_path(t, k), lambda i, j, x, y: i <= y and j <= x),
                        (ne_inversion_path(t, k), lambda i, j, x, y: i > y and j > x),
                    ):
                        (x, y), steps = path.start, iter(path.steps)
                        while (y + 1, x) in s and (y, x + 1) in s:
                            dx, dy = moves[next(steps)]
                            x, y = x + dx, y + dy
                        assert not [(i, j) for i, j in cells if beyond(i, j, x, y)], (t.rows, k, path)

    @pytest.mark.parametrize(
        "t,k,cell",
        [
            (T22, 0, (1, 1)),
            (T22, 5, (1, 1)),
            (T22, 4, (1, 0)),  # west of column 1
            (T22, 4, (3, 1)),  # above the shape
            (SKEW1, 3, (1, 1)),  # in the inner shape
        ],
    )
    def test_a_pivot_or_cell_outside_the_tableau_is_a_value_error(self, t, k, cell):
        # Bad caller input, never AlgorithmError (a RuntimeError).
        message = f"content {k} outside 1..{t.n}" if not 1 <= k <= t.n else f"cell {cell} not in shape"
        with pytest.raises(ValueError, match=re.escape(message)):
            classify_side(t, k, cell)


class TestBlocksAndPsi:
    def test_blocks_for_hook(self):
        t = tableau_from_rows([[1, 2], [3]])
        bp = forward_blocks(t, 3)
        assert [[t.content(c) for c in block] for block in bp.blocks] == [[1], [2]]

    def test_blocks_for_2x2(self):
        bp = forward_blocks(T22B, 4)
        assert [[T22B.content(c) for c in block] for block in bp.blocks] == [[1], [2, 3]]
        assert bp.anchor_side == ABOVE

    def test_blocks_partition_the_contents_below_k(self):
        # Read in order, the blocks hold every content below k once, in
        # increasing order, so each block is a run of consecutive contents;
        # the blocks of one content, which no step cycles, included.
        for s in skew_catalog(6):
            for t in enumerate_syt(s):
                for k in range(1, t.n + 1):
                    blocks = forward_blocks(t, k).blocks
                    assert [t.content(c) for block in blocks for c in block] == list(range(1, k)), (t.rows, k)

    @pytest.mark.parametrize("blocks,k", [(forward_blocks, 0), (forward_blocks, 5), (ne_blocks, 0), (ne_blocks, 5)])
    def test_blocks_reject_a_pivot_outside_1_to_n(self, blocks, k):
        with pytest.raises(ValueError, match=f"pivot {k} outside 1..4"):
            blocks(T22, k)

    @pytest.mark.parametrize("blocks", [forward_blocks, ne_blocks])
    def test_blocks_validate_through_the_grid_and_build_no_tableau(self, blocks, monkeypatch):
        with pytest.raises(TableauError):
            Tableau(T22.shape, ((2, 1), (3, 4)))

        def built(*args):
            raise AssertionError("a filling was validated or a Tableau built")

        pivots = [(t, k) for t in (T22, SKEW2) for k in range(1, t.n + 1)]
        expected = [blocks(*pivot) for pivot in pivots]
        monkeypatch.setattr(inversion, "_from_positions", built)
        monkeypatch.setattr(model, "validate_filling", built)
        monkeypatch.setattr(inversion, "validate_filling", built)
        assert [blocks(*pivot) for pivot in pivots] == expected

    def test_psi_k_cycles_blocks(self):
        assert psi_k(T22B, 4) == T22
        assert psi_k(T22, 4) == T22B

    def test_pivots_1_and_2_cycle_nothing(self):
        # Below 1 there is no content and below 2 only 1, which makes no
        # block of two, so either step leaves every tableau as it is.
        for s in skew_catalog(6):
            for t in enumerate_syt(s):
                for k in range(1, min(t.n, 2) + 1):
                    assert psi_k(t, k) == t == phi_k(t, k), (t.rows, k)

    def test_psi_k_identity_on_single_row(self):
        t = tableau_from_rows([[1, 2, 3, 4]])
        for k in range(3, 5):
            assert psi_k(t, k) == t

    def test_psi_examples(self):
        t = tableau_from_rows([[1, 2], [3]])
        assert psi(t) == t
        assert maj(psi(t)) == 2 == inv_statistic(t)
        assert psi(T22B) == T22
        assert maj(psi(T22B)) == 2 == inv_statistic(T22B)
        assert psi(T22) == T22B
        assert maj(psi(T22)) == 4 == inv_statistic(T22)

    def test_phi_inverts_psi_k(self):
        assert phi_k(T22, 4) == T22B
        for shape_text in ("3,2", "2,2,1", "4,1"):
            for t in enumerate_syt(parse_shape(shape_text)):
                for k in range(3, t.n + 1):
                    assert phi_k(psi_k(t, k), k) == t

    def test_phi_inverts_psi_exhaustive_small(self):
        for shape_text in ("3,2", "2,2,1", "3,3/1", "2,2,2/1"):
            for t in enumerate_syt(parse_shape(shape_text)):
                assert phi(psi(t)) == t
                assert psi(phi(t)) == t

    def test_traces_are_consistent(self):
        stages = map_trace(T22)
        result = Tableau(*stages[-1].result)
        assert result == psi(T22)
        assert [st.k for st in stages] == [4, 3]
        inv_stages = map_trace(result, forward=False)
        assert inv_stages[-1].result == T22
        assert [st.k for st in inv_stages] == [3, 4]

    def test_map_trace_builds_no_tableau_and_validates_nothing(self, monkeypatch):
        # A stage's result is the filling its step's check proved standard:
        # the trace builds no Tableau and runs no second validation.
        tableaux = [t for s in skew_catalog(5) for t in enumerate_syt(s)]
        tableaux += TestRandomLarge.tableaux(80, range(25, 81, 11))
        built, validated = [], []
        post_init, validate = Tableau.__post_init__, model.validate_filling

        def building(self):
            built.append(self)
            post_init(self)

        def counting(*args):
            validated.append(args)
            return validate(*args)

        monkeypatch.setattr(Tableau, "__post_init__", building)
        monkeypatch.setattr(model, "validate_filling", counting)
        monkeypatch.setattr(inversion, "validate_filling", counting)
        for t in tableaux:
            for forward in (True, False):
                assert all(type(stage.result) is Filling for stage in map_trace(t, forward))
        assert built == [] and validated == []

    def test_phi_stages_follow_the_forward_definition(self):
        # Each phi_k stage shows the path and blocks that psi_k takes on the
        # stage's result.  The path is taken there with `heights`, so this
        # holds it to `inversion_path` on the same tableau; the blocks come
        # from the runs phi_step cycled, so this holds the reverse step to
        # `forward_blocks`, which takes the same path on that tableau.  A
        # block's cells only trade places, so the blocks compare as sets of
        # cells.
        shapes = skew_catalog(6) + [parse_shape(text) for text in ("2,2/2", "3,3/1,1", "4,4,2/4,1", "3,2/3")]
        for s in shapes:
            for t in enumerate_syt(s):
                for stage in map_trace(t, forward=False):
                    k, before = stage.k, Tableau(*stage.result)
                    assert stage.path == inversion_path(before, k), (t.rows, k)
                    forward = forward_blocks(before, k).blocks
                    assert {frozenset(b) for b in stage.blocks} == {frozenset(b) for b in forward}, (t.rows, k)

    def test_psi_stages_follow_the_forward_definition(self):
        # Each psi_k stage replays one step of the cascade that psi keeps on
        # t; it must be the step run on its own: psi_k of the previous
        # stage's tableau (t for k = n), along the path and with the
        # blocks, in order, that inversion_path and forward_blocks take on
        # that tableau.
        tableaux = list(_ne_tableaux(6)) + list(TestRandomLarge.tableaux(80, range(25, 81, 11)))
        for t in tableaux:
            before = t
            for stage in map_trace(t):
                k = stage.k
                after = psi_k(before, k)
                assert Tableau(*stage.result) == after, (t.rows, k)
                assert stage.path == inversion_path(before, k), (t.rows, k)
                assert stage.blocks == forward_blocks(before, k).blocks, (t.rows, k)
                before = after

    def test_map_trace_replays_the_walk_psi_or_phi_keeps(self, monkeypatch):
        # On a fresh tableau map_trace runs one walk, n forward pivots or
        # n - 2 reverse steps, and keeps it; after psi(t) or phi(t) it runs
        # none, and phi(s) called twice runs its walk once.  Each forward
        # pivot is counted as the forward loop (`_cascade`) takes it, each
        # reverse one as `phi_step` runs it.
        calls = []
        cascade, phi_step = inversion._cascade, _Grid.phi_step

        def forward_loop(grid, pivots, *args, **kwargs):
            def taken():
                for k in pivots:
                    calls.append("psi")
                    yield k

            return cascade(grid, taken(), *args, **kwargs)

        def reverse_step(*args, **kwargs):
            calls.append("phi")
            return phi_step(*args, **kwargs)

        monkeypatch.setattr(inversion, "_cascade", forward_loop)
        monkeypatch.setattr(_Grid, "phi_step", reverse_step)
        tableaux = [tableau_from_rows([[1, 2, 5], [3, 4], [6, 7]])] + list(TestRandomLarge.tableaux(5, [30]))
        for t in tableaux:
            for forward, walk, steps in ((True, psi, ["psi"] * t.n), (False, phi, ["phi"] * (t.n - 2))):
                calls.clear()
                map_trace(Tableau(*t), forward)
                assert calls == steps, (t.rows, forward)
                kept = Tableau(*t)
                walk(kept)
                calls.clear()
                assert map_trace(kept, forward)[-1].result == walk(kept)
                assert calls == [], (t.rows, forward)
            calls.clear()
            s = Tableau(*t)
            assert phi(s) == phi(s)
            assert calls == ["phi"] * (t.n - 2), t.rows


class TestInvStatistic:
    def test_2x2_pairs(self):
        pairs = sorted(
            (T22.content(a), T22.content(b)) for a, b in inversion_pairs(T22)
        )
        assert pairs == [(3, 1), (3, 2), (4, 1), (4, 2)]
        assert inv_statistic(T22) == 4
        assert inv_code(T22) == [0, 0, 2, 2]

    def test_path_set_covers_all_but_one_cell(self):
        ips = inversion_path_set(T22)
        assert set(ips.paths) == {(1, 2), (2, 1), (2, 2)}
        assert ips.exempt == (1, 1)
        empty = Tableau(Shape(()), ())
        assert inversion_path_set(empty) == inversion_path_set(rotate_complement(empty)) == ({}, None, set())

    def test_path_set_follows_the_cascade(self):
        # The path of pivot k is taken on the cascade's tableau just before
        # its step k, here rebuilt with psi_k; it is keyed by the cell k
        # stands in there, which may hold another content in t.
        for t in _ne_tableaux(5):
            ips = inversion_path_set(t)
            u = t
            for k in range(t.n, 1, -1):
                assert ips.paths[u.positions()[k]] == inversion_path(u, k)
                u = psi_k(u, k)
            assert u == psi(t)
            assert ips.exempt == u.positions()[1]

    def test_code_sums_to_statistic(self):
        for t in enumerate_syt(parse_shape("3,2")):
            code = inv_code(t)
            assert sum(code) == inv_statistic(t)
            assert all(0 <= code[k - 1] <= k - 1 for k in range(1, t.n + 1))

    def test_exempt_cell_counts_the_smaller_contents_south_east_of_it(self):
        # Independent of how a path is traced: the pairs whose larger cell is
        # the exempt cell (i, j) are exactly the cells with a smaller content
        # that lie weakly south-east of it, row <= i and column >= j.
        for s in skew_catalog():
            for t in enumerate_syt(s):
                ips = inversion_path_set(t)
                i, j = ips.exempt
                top = t.content(ips.exempt)
                counted = {small for big, small in ips.pairs if big == ips.exempt}
                cells = t.positions()[1:top]
                assert counted == {(r, c) for r, c in cells if r <= i and c >= j}, t.rows

    def test_skew_exempt_cell_anchors_pairs(self):
        # The exempt cell holds content 2 here; its weakly-SE neighbor with
        # content 1 still counts, matching the major index of the image.
        assert inv_statistic(SKEW1) == 2 == maj(psi(SKEW1))
        assert inv_statistic(SKEW2) == 1 == maj(psi(SKEW2))

    def test_matches_major_index_of_image(self):
        for shape_text in ("4,2", "3,2,1", "3,3/1", "4,3,1/2"):
            for t in enumerate_syt(parse_shape(shape_text)):
                assert inv_statistic(t) == maj(psi(t))

    def test_map_traces_end_at_the_image_and_back(self):
        # The forward trace ends at psi(t), and the inverse trace of that
        # image ends at t; with n < 3 there is no stage and both maps are
        # the identity.
        for s in skew_catalog(6, 3, 3):
            for t in enumerate_syt(s):
                stages = map_trace(t)
                image = Tableau(*stages[-1].result) if stages else t
                assert image == psi(t)
                back = map_trace(image, forward=False)
                assert (back[-1].result if back else image) == t


class TestNeVariant:
    def test_ne_path_is_rotated_sw_path(self):
        for t in (T22, T22B, SKEW1, SKEW2):
            r = rotate_complement(t)
            p = ne_inversion_path(t, 1)
            q = inversion_path(r, r.n)
            assert p.steps == q.steps.replace("W", "E").replace("S", "N")

    def test_comaj_map_is_rotation_conjugate(self):
        for shape_text in ("3,2", "2,2,1", "3,3/1", "2,2,2/1"):
            for t in enumerate_syt(parse_shape(shape_text)):
                expected = rotate_complement(psi(rotate_complement(t)))
                assert comaj_map(t) == expected

    def test_cinv_matches_comajor_index_of_image(self):
        for shape_text in ("3,2", "2,2,1", "3,3/1", "4,3,1/2"):
            for t in enumerate_syt(parse_shape(shape_text)):
                assert cinv_statistic(t) == inv_statistic(rotate_complement(t))
                assert cinv_statistic(t) == comaj(comaj_map(t))

    def test_comaj_map_fixes_cell_of_one(self):
        for t in enumerate_syt(parse_shape("3,2,1")):
            assert comaj_map(t).positions()[1] == t.positions()[1]


def _open_rectangles(s):
    """N(s): the pairs of cells (p, q) of s with q strictly north-east of p
    and the cell in q's row and p's column not in s (0 on straight shapes)."""
    cells = s.cells()
    return sum(1 for p in cells for q in cells if q[0] > p[0] and q[1] > p[1] and (q[0], p[1]) not in s)


class TestTranspose:
    def test_maps_commute_with_conjugation_and_statistics_sum_to_a_constant(self):
        # Observed, not from the paper.  On every SYT of skew_catalog(6),
        # inv, cinv and maj each sum over t and its transpose to
        # C(n,2) - N(s).  For n <= 5 every pivot step psi_k that moves
        # anything (k >= 3), phi and comaj_map commute with the transpose;
        # at n = 6 the composite psi does.  These bounds keep the test near
        # 3 s on a 2-core x86-64 host.
        def transposed(u):
            return [(j, i) for i, j in u.positions()]

        for s in skew_catalog(6):
            total = s.size * (s.size - 1) // 2 - _open_rectangles(s)
            if s.size <= 5:
                maps = [phi, comaj_map] + [functools.partial(psi_k, k=k) for k in range(3, s.size + 1)]
            else:
                maps = [psi]
            for t in enumerate_syt(s):
                c = model.conjugate(t)
                for f in maps:
                    assert f(c).positions() == transposed(f(t)), (f, t)
                for stat in (inv_statistic, cinv_statistic, maj):
                    assert stat(t) + stat(c) == total, (stat.__name__, t)


UNNORMALIZED = ("2,2/2", "3,3/1,1", "3,3,3/3", "3,3,1/1,1,1")


def _ne_tableaux(*catalog_bounds):
    for s in skew_catalog(*catalog_bounds) + [parse_shape(text) for text in UNNORMALIZED]:
        yield from enumerate_syt(s)


def _turned_back(t, cell):
    """A cell of rotate_complement(t) as the cell of t's box it came from."""
    return (t.shape.n_rows + 1 - cell[0], t.shape.width + 1 - cell[1])


def _turned_path(t, path):
    """An SW path of rotate_complement(t) as the NE path of t's box."""
    x, y = path.start
    return LatticePath((t.shape.width - x, t.shape.n_rows - y), path.steps.translate(str.maketrans("WSEN", "ENWS")))


class TestNeFunctions:
    """The NE functions against their SW counterparts on rotate_complement:
    each NE reading is rc∘SW∘rc, with rc = rotate_complement."""

    def test_path_set_covers_all_but_one_cell_and_counts_cinv(self):
        for t in _ne_tableaux():
            r = rotate_complement(t)
            ips = inversion_path_set(r)
            assert len(ips.paths) == t.n - 1 and ips.exempt not in ips.paths
            assert cinv_statistic(t) == len(inversion_pairs(r))

    def test_path_set_follows_the_cascade(self):
        # The path set of rotate_complement(t), turned back, holds the NE
        # path of pivot k taken on the NE cascade's tableau just before its
        # step k, here rebuilt from psi_k on rotate_complement.
        for t in _ne_tableaux(5):
            ips = inversion_path_set(rotate_complement(t))
            u = t
            for k in range(1, t.n):
                turned = rotate_complement(u)
                assert _turned_path(t, ips.paths[turned.positions()[t.n + 1 - k]]) == ne_inversion_path(u, k)
                if k <= t.n - 2:
                    u = rotate_complement_into(psi_k(turned, t.n + 1 - k), t.shape)
            assert u == comaj_map(t)
            assert _turned_back(t, ips.exempt) == u.positions()[t.n]

    def test_ne_blocks_match_rotate_complement_reference(self):
        for t in _ne_tableaux(5):
            r = rotate_complement(t)
            for k in range(1, t.n + 1):
                ref = forward_blocks(r, t.n + 1 - k)
                bp = ne_blocks(t, k)
                assert bp.k == k
                assert bp.anchor_side == (ABOVE if ref.anchor_side == BELOW else BELOW)
                assert bp.blocks == tuple(tuple(_turned_back(t, cell) for cell in block) for block in ref.blocks)

    def test_turned_grid_is_rotate_complement(self):
        for text in UNNORMALIZED + ("3,2", "4,3,1/2", "3,2/3"):
            for t in enumerate_syt(parse_shape(text)):
                grid = _Grid(t.shape, t.positions(), turned=True)
                assert Tableau(grid.shape, grid.rows()) == rotate_complement(t)
                assert grid.pos == rotate_complement(t).positions()
                back = inversion._turned(t.shape, grid.pos)  # turned twice
                assert back == t.positions()
                assert Tableau(t.shape, _Grid(t.shape, back).rows()) == t

    @pytest.mark.parametrize("fn", [cinv_statistic, comaj_map, lambda t: ne_inversion_path(t, 2)])
    def test_input_is_validated_once(self, fn, monkeypatch):
        # Every validation runs through `validate_filling`, so counting it
        # counts them all; only a Tableau that the call returns is checked.
        calls = []
        validate = model.validate_filling

        def counting(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(model, "validate_filling", counting)
        monkeypatch.setattr(inversion, "validate_filling", counting)
        for t in (SKEW1, Tableau(parse_shape("3,3/1,1"), [[None, 1, 3], [None, 2, 4]])):
            calls.clear()
            fn(t)
            assert len(calls) == (1 if fn is comaj_map else 0)


SW_READERS = (psi, inv_statistic, inversion_pairs, inversion_path_set, inv_code)
NE_READERS = (comaj_map, cinv_statistic)


class TestCountingCascade:
    """The statistic counted from the cascade's paths against the pair
    sets, grids filled turned against grids turned after filling, and the
    cascade record each tableau keeps per orientation."""

    @pytest.mark.parametrize("first", SW_READERS + NE_READERS, ids=lambda fn: fn.__name__)
    def test_one_forward_cascade_per_tableau_and_orientation(self, first, monkeypatch):
        # Each pivot is counted as the forward loop (`_cascade`) takes it.
        steps = []
        loop = inversion._cascade

        def counting(grid, pivots, *args, **kwargs):
            def taken():
                for k in pivots:
                    steps.append(k)
                    yield k

            return loop(grid, taken(), *args, **kwargs)

        monkeypatch.setattr(inversion, "_cascade", counting)
        same, other = (SW_READERS, NE_READERS) if first in SW_READERS else (NE_READERS, SW_READERS)
        for t in (
            tableau_from_rows([[1, 2, 5], [3, 4, 6], [7]]),
            Tableau(parse_shape("4,3,2/2,1"), [[None, None, 1, 3], [None, 2, 5], [4, 6]]),
        ):
            cascade = t.n  # pivots n down to 1, 2 and 1 cycling nothing
            steps.clear()
            first(t)
            assert len(steps) == cascade
            for fn in same:
                fn(t)
            assert len(steps) == cascade
            for fn in other:
                fn(t)
            assert len(steps) == 2 * cascade
            for fn in SW_READERS + NE_READERS:
                fn(t)
            assert len(steps) == 2 * cascade

    def test_reading_order_does_not_mix_the_orientations(self):
        # NE first and then SW on one instance against SW first on a fresh
        # equal one; psi and comaj_map against the last stage of map_trace
        # (on the turned tableau for comaj_map), and inv and cinv against
        # the enumerator's statistics on its own walk, SYT by SYT, a route
        # that reads no Tableau record.  The empty tableau is read too.
        for s in [Shape(())] + skew_catalog(6):
            values = pass_values(s, ["inv", "cinv"])
            for t, inv, cinv in zip(enumerate_syt(s), values["inv"], values["cinv"], strict=True):
                fresh = Tableau(t.shape, t.rows)
                ne = [fn(t) for fn in NE_READERS]
                sw = [fn(t) for fn in SW_READERS]
                assert [fn(fresh) for fn in SW_READERS] == sw, t.rows
                assert [fn(fresh) for fn in NE_READERS] == ne, t.rows
                stages = map_trace(t)
                image = stages[-1].result if stages else t
                assert sw[:2] == [image, inv], t.rows
                stages = map_trace(rotate_complement(t))
                turned_image = Tableau(*stages[-1].result) if stages else rotate_complement(t)
                assert ne[:2] == [rotate_complement_into(turned_image, t.shape), cinv], t.rows

    def test_psi_builds_one_grid(self, monkeypatch):
        # psi builds its image from the grid its cascade ran on; comaj_map
        # turns that grid's cells back into t's shape and builds its image
        # from them (`model._from_positions`), with no second grid.
        grids = []
        init = _Grid.__init__

        def counting(self, *args, **kwargs):
            grids.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Grid, "__init__", counting)
        large = TestRandomLarge.tableaux(80, range(25, 81, 11))
        for t in itertools.chain([Tableau(Shape(()), ())], _ne_tableaux(5), large):
            for fn, count in ((psi, 1), (comaj_map, 1)):
                grids.clear()
                fn(Tableau(t.shape, t.rows))
                assert len(grids) == count, (fn.__name__, t.rows)

    @pytest.mark.parametrize(
        "fn",
        [psi, phi, lambda t: psi_k(t, t.n), lambda t: phi_k(t, t.n), comaj_map],
        ids=["psi", "phi", "psi_k", "phi_k", "comaj_map"],
    )
    def test_each_map_reads_its_image_off_positions_once(self, fn, monkeypatch):
        # Every map builds its image in one call of the one builder of a
        # tableau read off the cell of each content (`model._from_positions`).
        built = []
        build = inversion._from_positions

        def counting(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(inversion, "_from_positions", counting)
        for t in (T22B, SKEW2, tableau_from_rows([[1, 2, 5], [3, 4, 6], [7]])):
            built.clear()
            image = fn(Tableau(t.shape, t.rows))
            assert len(built) == 1 and built[0] is image, t.rows

    def test_the_record_leaves_equality_hash_and_repr_alone(self):
        for t in _ne_tableaux(4):
            fresh = Tableau(t.shape, t.rows)
            for fn in SW_READERS + NE_READERS:
                fn(t)
            assert t == fresh and fresh == t
            assert hash(t) == hash(fresh)
            assert repr(t) == repr(fresh)
            assert len({t, fresh}) == 1

    def test_count_equals_the_number_of_pairs(self):
        # TestNeFunctions does the same for cinv on _ne_tableaux().
        for t in _ne_tableaux():
            assert inv_statistic(t) == len(inversion_pairs(t))
        for t in itertools.chain(
            TestRandomLarge.tableaux(80, range(25, 81)), TestRandomLarge.tableaux(200, range(100, 201, 10))
        ):
            assert inv_statistic(t) == len(inversion_pairs(t))
            assert cinv_statistic(t) == len(inversion_pairs(rotate_complement(t)))

    def test_recorded_and_unrecorded_runs_agree(self):
        # Keeping the paths changes nothing the forward loop computes: the
        # same count and the same final grid, SW and NE, and the count is
        # the number of pairs the record builds.
        every_syt = (t for s in skew_catalog(7) for t in enumerate_syt(s))
        for t in itertools.chain(every_syt, TestRandomLarge.tableaux(80, range(25, 81, 11))):
            for turned, paired in ((False, t), (True, rotate_complement(t))):
                bare = inversion._inversions(t.shape, t.positions(), turned)
                record = inversion._inversions(t.shape, t.positions(), turned, steps=[])
                assert bare.steps is None and len(record.steps) == t.n, t.rows
                assert bare.count == record.count == len(inversion_pairs(paired)), (turned, t.rows)
                assert (bare.grid.g, bare.grid.pos) == (record.grid.g, record.grid.pos), (turned, t.rows)

    def test_turned_fill_equals_turning_the_filled_grid(self):
        for t in _ne_tableaux(6):
            turned = _Grid(t.shape, t.positions(), turned=True)
            grid = _Grid(t.shape, t.positions())
            m = t.n + 1  # the array turned in its box, contents complemented
            assert turned.g == [[v and m - v for v in reversed(row)] for row in reversed(grid.g)]
            assert turned.pos == rotate_complement(t).positions()
            assert (turned.shape, turned.width, turned.turned) == (rotate_complement(t).shape, grid.width, True)


class TestUnnormalizedShapes:
    """Shapes with an empty first row or column, which rotate_complement
    trims; the NE map must still land in the shape it started from."""

    def test_rotate_complement_into_restores_the_shape(self):
        for text in UNNORMALIZED:
            for t in enumerate_syt(parse_shape(text)):
                assert rotate_complement_into(rotate_complement(t), t.shape) == t

    def test_comaj_map_stays_in_the_shape(self):
        for text in UNNORMALIZED:
            shape = parse_shape(text)
            tableaux = list(enumerate_syt(shape))
            images = set()
            for t in tableaux:
                image = comaj_map(t)
                assert image.shape == t.shape
                assert cinv_statistic(t) == comaj(image)
                assert image.positions()[1] == t.positions()[1]
                images.add(image.rows)
            assert images == {t.rows for t in tableaux}

    def test_ne_path_ends_in_the_box_corner(self):
        for text in UNNORMALIZED:
            for t in enumerate_syt(parse_shape(text)):
                for k in range(1, t.n + 1):
                    p = ne_inversion_path(t, k)
                    x = p.start[0] + p.steps.count("E")
                    y = p.start[1] + p.steps.count("N")
                    assert (x, y) == (t.shape.width, t.shape.n_rows)


def _run_check(grid, moved):
    """True when the step check accepts the grid's current contents."""
    try:
        grid.check(moved, "test", len(grid.pos) - 1)  # the pivot only names the step
    except AlgorithmError:
        return False
    return True


class TestStepCheck:
    """The per-step check must be exactly as strong as validating the whole
    tableau after each step."""

    def test_local_check_agrees_with_full_validation(self):
        # Each case is a step that writes new contents to a few cells and,
        # as `_Grid.cycle` does, records the cell of each moved content it
        # writes; the check then sees the old contents of those cells as
        # the moved ones, one block each.
        rng = random.Random(2024)
        verdicts = []
        for _ in range(600):
            n = rng.randint(2, 30)
            t = random_syt.straight_syt(rng, n) if rng.random() < 0.5 else random_syt.skew_syt(rng, n, rng.randint(1, 4))
            grid = _Grid(t.shape, t.positions())
            pos = t.positions()
            kind = rng.randrange(3)
            if kind == 0:  # swap consecutive contents, often still standard
                c = rng.randint(1, n - 1)
                cells = [pos[c], pos[c + 1]]
                new = [c + 1, c]
            else:
                cells = rng.sample(t.shape.cells(), rng.randint(1, min(4, n)))
                old = [t.content(cell) for cell in cells]
                new = rng.sample(old, len(old)) if kind == 1 else [rng.randint(0, n + 1) for _ in cells]
            moved = [t.content(cell) for cell in cells]
            rows = [list(r) for r in t.rows]
            for (i, j), v in zip(cells, new):
                grid.g[i][j] = v
                rows[i - 1][j - 1] = v
                if v in moved:
                    grid.pos[v] = (i, j)
            accepted = _run_check(grid, [(v, v + 1) for v in moved])
            assert accepted == (not validate_filling(t.shape, rows)), (t.rows, cells, new)
            verdicts.append(accepted)
        assert 100 < sum(verdicts) < 500

    @pytest.mark.parametrize(
        "rows,swap,k,message",
        [
            ([[1, 2], [3]], (1, 3), 3, "phi_3: content 3 is not in its cell (1, 1)"),
            ([[1, 2], [3, 4], [5, 6]], (3, 6), 3, "phi_3: content 3 is not in its cell (3, 2)"),
            ([[1, 2], [3, 4]], (2, 4), 3, "phi_3: top unused content 2 on the non-anchor side"),
            ([[1, 2], [3, 4]], (1, 2), 4, "phi_4: contents [1, 2, 3] never joined a simple block"),
        ],
        ids=["pivot-moved", "pivot-moved-off-the-grid", "non-anchor", "never-joined"],
    )
    def test_phi_step_names_a_grid_whose_cells_disagree(self, rows, swap, k, message):
        # pos has two contents trade cells while g still holds them where
        # they were: a kernel fault that the reverse step reports itself,
        # before the step's check.  A pivot whose own cell moved stops at
        # once: on "pivot-moved-off-the-grid" the step would write past the
        # grid's border.
        t = tableau_from_rows(rows)
        grid = _Grid(t.shape, t.positions())
        a, b = swap
        grid.pos[a], grid.pos[b] = grid.pos[b], grid.pos[a]
        with pytest.raises(AlgorithmError, match=rf"^{re.escape(message)}$"):
            grid.phi_step(k)

    def test_cycle_rotates_a_run_of_positions(self):
        grid = _Grid(T22B.shape, T22B.positions())
        grid.cycle([(2, 4)])
        assert Tableau(grid.shape, grid.rows()) == T22 and grid.pos == T22.positions()
        grid.check([(2, 4)], "test", 4)
        grid.cycle([(2, 4)], forward=False)
        assert Tableau(grid.shape, grid.rows()) == T22B and grid.pos == T22B.positions()
        t = tableau_from_rows([[1, 2, 3, 4]])
        row = _Grid(t.shape, t.positions())
        row.cycle([(1, 4)])
        assert row.g[1][1:5] == [3, 1, 2, 4] and row.pos == [(0, 0), (1, 2), (1, 3), (1, 1), (1, 4)]
        violation = r"\['row not increasing: cell \(1,1\)=3 vs \(1,2\)=1'\]"
        with pytest.raises(AlgorithmError, match=rf"^test_4 produced an invalid tableau: {violation}$"):
            row.check([(1, 4)], "test", 4)

    @pytest.mark.parametrize("fault", ["off_by_one", "duplicate", "swapped_cells"])
    def test_bad_cycling_write_raises(self, monkeypatch, fault):
        t = tableau_from_rows([[1, 2, 5], [3, 4, 6], [7]])
        image = psi(tableau_from_rows([[1, 2, 5], [3, 4, 6], [7]]))  # t keeps no sound cascade record
        cycle = _Grid.cycle

        def bad_cycle(self, blocks, forward=True):
            cycle(self, blocks, forward)
            if blocks:
                a, b = blocks[0][0], blocks[-1][1]
                (i, j), (i2, j2) = self.pos[a], self.pos[b - 1]
                if fault == "swapped_cells":  # positions traded without rewriting the grid
                    self.pos[a], self.pos[b - 1] = self.pos[b - 1], self.pos[a]
                else:
                    self.g[i][j] = self.g[i][j] + 1 if fault == "off_by_one" else self.g[i2][j2]

        monkeypatch.setattr(_Grid, "cycle", bad_cycle)
        for fn, arg in (
            (psi, t),
            (phi, image),
            (comaj_map, t),
            (inv_statistic, t),
            (cinv_statistic, t),
            (map_trace, t),
            (lambda s: map_trace(s, forward=False), image),
            (lambda s: statistic_counts(s, ["inv", "cinv"]), t.shape),
        ):
            with pytest.raises(AlgorithmError):
                fn(arg)

    @pytest.mark.parametrize(
        "shape,rows",
        [
            ((2,), ((2, 1),)),
            ((2, 2), ((2, 1), (3, 4))),
            ((2, 2), ((1, 2), (2, 4))),
            ((3, 2), ((1, 2, 3), (4, 9))),
            ((2,), ((5, 1),)),
            ((2, 2), ((1, 4), (2, 3))),
        ],
    )
    def test_non_standard_input_raises(self, shape, rows):
        with pytest.raises(TableauError) as e:
            Tableau(Shape(shape), rows)
        assert e.value.violations == validate_filling(Shape(shape), rows)


class TestRandomLarge:
    """Fixed-seed random tableaux, straight and skew, with 25 to 200 cells."""

    @staticmethod
    def tableaux(seed, sizes):
        rng = random.Random(seed)
        for n in sizes:
            yield random_syt.straight_syt(rng, n)
            yield random_syt.skew_syt(rng, n, rng.randint(1, n // 4))

    @staticmethod
    def check_bijection_and_statistics(t):
        image = psi(t)
        assert phi(image) == t
        assert inv_statistic(t) == maj(image)
        assert cinv_statistic(t) == comaj(comaj_map(t))
        assert map_trace(image, forward=False)[-1].result == t

    def test_bijection_and_statistics(self):
        for t in self.tableaux(80, range(25, 81)):
            self.check_bijection_and_statistics(t)

    def test_bijection_and_statistics_at_100_to_200_cells(self):
        for t in self.tableaux(200, range(100, 201, 10)):
            self.check_bijection_and_statistics(t)

    def test_q_hook_oracle_for_inv(self):
        shape = (5, 3, 2, 1, 1)
        assert distribution(Shape(shape), "inv").coefficients == random_syt.q_hook_maj(shape)
