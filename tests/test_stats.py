"""Descent-based statistics."""

from reference_syt import tableau_from_rows
from tabinv import (
    Tableau,
    comaj,
    descent_set,
    maj,
    parse_shape,
    rotate_complement,
)


def test_descent_set_examples():
    assert descent_set(tableau_from_rows([[1, 2, 3]])) == set()
    assert descent_set(tableau_from_rows([[1], [2], [3]])) == {1, 2}
    assert descent_set(tableau_from_rows([[1, 2], [3, 4]])) == {2}
    assert descent_set(tableau_from_rows([[1, 3], [2, 4]])) == {1, 3}


def test_maj_and_comaj():
    t = tableau_from_rows([[1, 3], [2, 4]])
    assert maj(t) == 4
    assert comaj(t) == (4 - 1) + (4 - 3)


def test_skew_descents():
    t = Tableau(parse_shape("2,2/1"), [[None, 2], [1, 3]])
    assert descent_set(t) == {2}
    assert maj(t) == 2
    assert comaj(t) == 1


def test_comaj_is_maj_after_rotation():
    for rows in ([[1, 2], [3, 4]], [[1, 3], [2, 4]], [[1, 2, 4], [3, 5]]):
        t = tableau_from_rows(rows)
        assert comaj(t) == maj(rotate_complement(t))
