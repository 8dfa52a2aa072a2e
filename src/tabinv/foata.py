"""Classical permutation statistics, Foata's bijection, and the bridge to the
tableau maps via staircase skew shapes.

The bridge (`bridge_check`) is the identity

    foata(perm_inverse(p)) == perm_inverse(read_staircase(phi(staircase_tableau(p))))

on the staircase of disjoint squares, where p_i fills the one cell of row
i.  `foata` is written once, letter by letter; its inverse is the bridge
read backwards, with psi, the inverse of phi (`foata_inverse`).
`perm_phi_direct` is a third route, written on permutations, that
`bridge_check` compares with the other two.
"""

from __future__ import annotations

from collections import namedtuple

from .inversion import phi, psi
from .model import Shape, Tableau, _decimal, _from_positions

Permutation = tuple[int, ...]


def check_permutation(values: tuple[int, ...]) -> Permutation:
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ValueError(f"{values} is not a permutation of 1..{len(values)}")
    return tuple(values)


def parse_permutation(text: str) -> Permutation:
    """Digit string for n <= 9 ("4137562") or comma-separated one-line form."""
    text = text.strip()
    try:
        values = tuple(map(_decimal, text.split(",") if "," in text else text))
    except ValueError:
        values = ()
    if not values:
        raise ValueError(f"cannot parse permutation {text!r}")
    return check_permutation(values)


def format_permutation(p: Permutation) -> str:
    if p and max(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def perm_inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def perm_inv(p: Permutation) -> int:
    """Number of inversions (i < j with p_i > p_j)."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def perm_maj(p: Permutation) -> int:
    """Sum of descent positions."""
    return sum(i for i in range(1, len(p)) if p[i - 1] > p[i])


def foata(p: Permutation) -> Permutation:
    """Foata's maj-to-inv bijection, built one letter at a time.

    Adding letter x to the word w: split w after each element smaller
    (resp. larger) than x when x beats (resp. loses to) the last letter,
    which is therefore always split after, so the segments cover w; rotate
    each segment's last element to its front, then append x.
    """
    p = check_permutation(p)
    if len(p) <= 2:
        return p
    word = list(p[:2])
    for x in p[2:]:
        if x > word[-1]:
            cut = [i for i, v in enumerate(word) if v < x]
        else:
            cut = [i for i, v in enumerate(word) if v > x]
        out: list[int] = []
        start = 0
        for end in cut:
            out.append(word[end])
            out.extend(word[start:end])
            start = end + 1
        word = out
        word.append(x)
    return tuple(word)


def foata_inverse(p: Permutation) -> Permutation:
    """Inverse of Foata's map: the bridge read backwards.

    By the bridge, foata(q) is perm_inverse(read_staircase(phi(S))) for
    S = staircase_tableau(perm_inverse(q)); psi undoes phi, and
    staircase_tableau undoes read_staircase, so p's preimage is psi run on
    the staircase of perm_inverse(p), read off and inverted.  The staircase
    of n cells fills an (n+2) by (n+2) grid."""
    q = perm_inverse(check_permutation(p))
    return perm_inverse(read_staircase(psi(staircase_tableau(q))))


def perm_phi_direct(p: Permutation) -> Permutation:
    """The permutation-level reverse-cycling map; see perm_phi_stages."""
    return perm_phi_stages(p)[-1]


def perm_phi_stages(p: Permutation) -> list[Permutation]:
    """Successive images after each reverse-cycling pivot 3..n.

    For pivot k, the values k-1..1 split into maximal blocks whose largest
    value sits on the same side of k's position as k-1 and whose remaining
    values sit on the other side; reverse cycling moves the block's smallest
    value into the position of its largest and shifts the rest down one slot.
    """
    p = check_permutation(p)
    stages = [p]
    word = list(p)
    for k in range(3, len(p) + 1):
        pos = {v: i for i, v in enumerate(word)}
        ref = pos[k - 1] < pos[k]
        blocks: list[list[int]] = []
        for v in range(k - 1, 0, -1):
            if (pos[v] < pos[k]) == ref:
                blocks.append([v])
            else:
                blocks[-1].append(v)
        for block in blocks:
            if len(block) == 1:
                continue
            slots = [pos[v] for v in block]
            word[slots[0]] = block[-1]
            for slot, v in zip(slots[1:], block[:-1]):
                word[slot] = v
        stages.append(tuple(word))
    return stages


def staircase_shape(n: int) -> Shape:
    return Shape(tuple(range(n, 0, -1)), tuple(range(n - 1, 0, -1)))


def staircase_tableau(p: Permutation) -> Tableau:
    """Disjoint-squares skew tableau with p_i in the single cell of row i."""
    n = len(check_permutation(p))
    # Row i's one cell is its last, column n+1-i; content p_i's row is i.
    return _from_positions(staircase_shape(n), [(0, 0)] + [(i, n + 1 - i) for i in perm_inverse(p)])


def read_staircase(t: Tableau) -> Permutation:
    """Contents read off row by row from the bottom."""
    values = []
    for row in t.rows:
        values.extend(v for v in row if v is not None)
    return check_permutation(tuple(values))


class BridgeReport(namedtuple("BridgeReport", "perm tableau_route direct_route foata_route")):
    """Three-way agreement between the tableau map on staircases, the
    permutation-level reverse cycling, and Foata's map on the inverse.

    Every field is a Permutation: perm; tableau_route, the inverse of the
    staircase readout of phi; direct_route, the inverse of the
    permutation-level map; foata_route, foata applied to the inverse
    permutation."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.tableau_route == self.direct_route == self.foata_route


def bridge_check(p: Permutation) -> BridgeReport:
    p = check_permutation(p)
    tableau_route = perm_inverse(read_staircase(phi(staircase_tableau(p))))
    direct_route = perm_inverse(perm_phi_direct(p))
    foata_route = foata(perm_inverse(p))
    return BridgeReport(p, tableau_route, direct_route, foata_route)
