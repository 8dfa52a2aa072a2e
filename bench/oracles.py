"""Enumeration-free reference values for straight shapes, computed in the
benchmark so that the enumerator's output is checked against mathematics
rather than against itself."""

from __future__ import annotations

from math import factorial, prod


def hook_lengths(shape: tuple[int, ...]) -> list[int]:
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    return [
        shape[i] - j + conj[j] - i - 1  # arm + leg + 1
        for i in range(len(shape))
        for j in range(shape[i])
    ]


def hook_count(shape: tuple[int, ...]) -> int:
    """Number of SYT of a straight shape, by the hook-length formula."""
    return factorial(sum(shape)) // prod(hook_lengths(shape))


def q_hook_maj(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of sum_T q^maj(T) over SYT of a straight shape, by
    Stanley's q-hook-length formula (EC2, Cor. 7.21.5):
    q^b(shape) * prod_{i<=n} (1 - q^i) / prod_u (1 - q^h(u)).
    """
    n = sum(shape)
    poly = [1]
    for i in range(1, n + 1):
        # multiply by (1 - q^i)
        poly = poly + [0] * i
        for k in range(len(poly) - 1, i - 1, -1):
            poly[k] -= poly[k - i]
    for h in hook_lengths(shape):
        # exact division by (1 - q^h): Q_k = P_k + Q_{k-h}
        for k in range(h, len(poly)):
            poly[k] += poly[k - h]
    while poly and poly[-1] == 0:
        poly.pop()
    if any(c < 0 for c in poly):
        raise ArithmeticError(f"q-hook quotient for {shape} is not a polynomial")
    b = sum(i * p for i, p in enumerate(shape))
    return tuple([0] * b + poly)
