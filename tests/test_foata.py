"""The classical permutation bijection and its tableau counterpart on
staircase shapes."""

import random
import re

import pytest

from tabinv import (
    bridge_check,
    foata,
    foata_inverse,
    format_permutation,
    format_shape,
    parse_permutation,
    perm_inv,
    perm_inverse,
    perm_maj,
    perm_phi_direct,
    perm_phi_stages,
    read_staircase,
    staircase_shape,
    staircase_tableau,
)


class TestParsing:
    def test_digit_and_comma_forms(self):
        assert parse_permutation("4137562") == (4, 1, 3, 7, 5, 6, 2)
        assert parse_permutation("4,1,3,7,5,6,2") == (4, 1, 3, 7, 5, 6, 2)
        assert parse_permutation("10,2,3,4,5,6,7,8,9,1")[0] == 10

    def test_format(self):
        assert format_permutation((4, 1, 3, 7, 5, 6, 2)) == "4137562"
        assert "," in format_permutation(tuple([10] + list(range(1, 10))))

    def test_rejects_non_permutations(self):
        # The last six are not ASCII decimal.
        for text in ("1124", "130", "", "1,2,4", "\u0662\u0661\u0663", "+1,2", "2,1_0,1", "21\u00b3", "1,,2", "-1"):
            with pytest.raises(ValueError):
                parse_permutation(text)


class TestFoata:
    def test_worked_example(self):
        sigma = parse_permutation("4137562")
        assert foata(sigma) == parse_permutation("7143562")
        assert perm_maj(sigma) == 11 == perm_inv(foata(sigma))

    def test_inverse_of_worked_example(self):
        assert foata_inverse(parse_permutation("7143562")) == parse_permutation("4137562")

    def test_chain_on_641253(self):
        assert foata(parse_permutation("641253")) == parse_permutation("416523")

    def test_round_trip_s5(self):
        from itertools import permutations

        for p in permutations(range(1, 6)):
            assert foata_inverse(foata(p)) == p
            assert perm_maj(p) == perm_inv(foata(p))

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_round_trip_seeded_large(self, n):
        # foata_inverse runs psi on the staircase; foata is written letter
        # by letter, so each direction checks the other far past S_5.
        rng = random.Random(n)
        for _ in range(5):
            p = tuple(rng.sample(range(1, n + 1), n))
            assert foata_inverse(foata(p)) == p
            assert foata(foata_inverse(p)) == p

    def test_inverse_rejects_non_permutations(self):
        for p in ((1, 1, 3), (2, 3), (0, 1)):
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))} is not a permutation of 1..{len(p)}$"):
                foata_inverse(p)


class TestPermutationLevelMap:
    def test_stage_chain(self):
        stages = perm_phi_stages(parse_permutation("346251"))
        assert [format_permutation(s) for s in stages] == [
            "346251",
            "346251",
            "146352",
            "146253",
            "256143",
        ]

    def test_direct_equals_last_stage(self):
        p = parse_permutation("346251")
        assert perm_phi_direct(p) == parse_permutation("256143")


class TestStaircase:
    def test_shape(self):
        assert format_shape(staircase_shape(3)) == "3,2,1/2,1"

    def test_tableau_round_trip(self):
        p = parse_permutation("346251")
        assert read_staircase(staircase_tableau(p)) == p

    def test_bridge_on_worked_example(self):
        report = bridge_check(parse_permutation("346251"))
        assert report.ok
        assert report.foata_route == parse_permutation("416523")

    def test_bridge_exhaustive_s4(self):
        from itertools import permutations

        for p in permutations(range(1, 5)):
            assert bridge_check(p).ok


def test_perm_inverse():
    p = parse_permutation("4137562")
    q = perm_inverse(p)
    assert perm_inverse(q) == p
    assert all(p[q[i - 1] - 1] == i for i in range(1, 8))
