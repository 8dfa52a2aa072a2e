"""Lattice paths, side classification, cycling maps, and the inversion
statistic, including its north-east (comaj) counterpart."""

import random

import pytest

import random_syt
from tabinv import (
    ABOVE,
    BELOW,
    AlgorithmError,
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
    make_tableau,
    map_trace,
    ne_inversion_path,
    parse_shape,
    phi,
    phi_k,
    phi_trace,
    psi,
    psi_k,
    psi_trace,
    rotate_complement,
    tableau_from_rows,
    validate_filling,
)
from tabinv.inversion import _Grid
from tabinv.enumeration import skew_catalog
from tabinv.model import Shape, Tableau, TableauError, rotate_complement_into

T22 = tableau_from_rows([[1, 2], [3, 4]])
T22B = tableau_from_rows([[1, 3], [2, 4]])
SKEW1 = make_tableau(parse_shape("2,2/1"), [[None, 1], [2, 3]])
SKEW2 = make_tableau(parse_shape("2,2/1"), [[None, 2], [1, 3]])


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


class TestSideClassification:
    def test_sides_around_a_path(self):
        p = inversion_path(T22, 4)  # WS from (1, 1)
        assert classify_side(p, (1, 1)) == BELOW
        assert classify_side(p, (1, 2)) == BELOW
        assert classify_side(p, (2, 1)) == ABOVE
        assert classify_side(p, (2, 2)) == BELOW  # the anchor cell itself

    def test_cells_east_of_start_are_below(self):
        p = LatticePath((0, 1), "S")
        assert classify_side(p, (1, 1)) == BELOW
        assert classify_side(p, (2, 1)) == BELOW
        assert classify_side(p, (3, 1)) == ABOVE


class TestBlocksAndPsi:
    def test_blocks_for_hook(self):
        t = tableau_from_rows([[1, 2], [3]])
        p = inversion_path(t, 3)
        bp = forward_blocks(t, 3, p)
        assert bp.content_blocks(t) == [[1], [2]]

    def test_blocks_for_2x2(self):
        p = inversion_path(T22B, 4)
        bp = forward_blocks(T22B, 4, p)
        assert bp.content_blocks(T22B) == [[1], [2, 3]]
        assert bp.anchor_side == ABOVE

    def test_psi_k_cycles_blocks(self):
        assert psi_k(T22B, 4) == T22
        assert psi_k(T22, 4) == T22B

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
        result, stages = psi_trace(T22)
        assert result == psi(T22)
        assert [st.k for st in stages] == [4, 3]
        back, inv_stages = phi_trace(result)
        assert back == T22
        assert [st.k for st in inv_stages] == [3, 4]


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

    def test_code_sums_to_statistic(self):
        for t in enumerate_syt(parse_shape("3,2")):
            code = inv_code(t)
            assert sum(code) == inv_statistic(t)
            assert all(0 <= code[k - 1] <= k - 1 for k in range(1, t.n + 1))

    def test_skew_exempt_cell_anchors_pairs(self):
        # The exempt cell holds content 2 here; its weakly-SE neighbor with
        # content 1 still counts, matching the major index of the image.
        assert inv_statistic(SKEW1) == 2 == maj(psi(SKEW1))
        assert inv_statistic(SKEW2) == 1 == maj(psi(SKEW2))

    def test_matches_major_index_of_image(self):
        for shape_text in ("4,2", "3,2,1", "3,3/1", "4,3,1/2"):
            for t in enumerate_syt(parse_shape(shape_text)):
                assert inv_statistic(t) == maj(psi(t))

    def test_map_trace_counts_inv_from_its_own_cascade(self):
        # Inverse, the paths come from phi's reconstruction, so this also
        # checks that they are the paths psi takes on phi's result.
        for s in skew_catalog(6, 3, 3):
            for t in enumerate_syt(s):
                image, _, inv = map_trace(t)
                assert (image, inv) == (psi(t), inv_statistic(t))
                assert map_trace(image, forward=False)[::2] == (t, inv)


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


UNNORMALIZED = ("2,2/2", "3,3/1,1", "3,3,3/3", "3,3,1/1,1,1")


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


def _run_check(grid, touched):
    """True when the step check accepts the grid's current contents."""
    try:
        grid.check(touched, "test")
    except AlgorithmError:
        return False
    return True


class TestStepCheck:
    """The per-step check must be exactly as strong as validating the whole
    tableau after each step."""

    def test_local_check_agrees_with_full_validation(self):
        rng = random.Random(2024)
        verdicts = []
        for _ in range(600):
            n = rng.randint(2, 30)
            t = random_syt.straight_syt(rng, n) if rng.random() < 0.5 else random_syt.skew_syt(rng, n, rng.randint(1, 4))
            grid = _Grid(t)
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
            touched = [(cell, t.content(cell)) for cell in cells]
            rows = [list(r) for r in t.rows]
            for (i, j), v in zip(cells, new):
                grid.g[i][j] = v
                rows[i - 1][j - 1] = v
            accepted = _run_check(grid, touched)
            assert accepted == (not validate_filling(t.shape, rows)), (t.rows, cells, new)
            verdicts.append(accepted)
        assert 100 < sum(verdicts) < 500

    def test_accepted_check_updates_positions(self):
        t = tableau_from_rows([[1, 2], [3, 4]])
        grid = _Grid(t)
        grid.g[1][2], grid.g[2][1] = 3, 2
        grid.check([((1, 2), 2), ((2, 1), 3)], "test")
        assert grid.pos == tableau_from_rows([[1, 3], [2, 4]]).positions()

    @pytest.mark.parametrize("fault", ["off_by_one", "duplicate"])
    def test_bad_cycling_write_raises(self, monkeypatch, fault):
        t = tableau_from_rows([[1, 2, 5], [3, 4, 6], [7]])
        image = psi(t)
        rotate = _Grid.rotate

        def bad_rotate(self, blocks, touched):
            rotate(self, blocks, touched)
            if touched:
                (i, j), (i2, j2) = touched[0][0], touched[-1][0]
                self.g[i][j] = self.g[i][j] + 1 if fault == "off_by_one" else self.g[i2][j2]

        monkeypatch.setattr(_Grid, "rotate", bad_rotate)
        with pytest.raises(AlgorithmError):
            psi(t)
        with pytest.raises(AlgorithmError):
            phi(image)

    @pytest.mark.parametrize(
        "shape,rows",
        [
            ((2,), ((2, 1),)),
            ((2, 2), ((2, 1), (3, 4))),
            ((2, 2), ((1, 2), (2, 4))),
            ((3, 2), ((1, 2, 3), (4, 9))),
        ],
    )
    def test_non_standard_input_raises(self, shape, rows):
        t = Tableau(Shape(shape), rows)
        for fn in (psi, phi, inv_statistic, comaj_map, cinv_statistic):
            with pytest.raises(TableauError):
                fn(t)


class TestRandomLarge:
    """Fixed-seed random tableaux with 25 to 80 cells."""

    @staticmethod
    def tableaux():
        rng = random.Random(80)
        for n in range(25, 81):
            yield random_syt.straight_syt(rng, n)
            yield random_syt.skew_syt(rng, n, rng.randint(1, n // 4))

    def test_bijection_and_statistics(self):
        for t in self.tableaux():
            image = psi(t)
            assert phi(image) == t
            assert inv_statistic(t) == maj(image)
            assert cinv_statistic(t) == comaj(comaj_map(t))
            assert map_trace(image, forward=False)[::2] == (t, maj(image))

    def test_q_hook_oracle_for_inv(self):
        shape = (5, 3, 2, 1, 1)
        assert distribution(Shape(shape), "inv").coefficients == random_syt.q_hook_maj(shape)
