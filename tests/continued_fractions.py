"""Test helper: exact evaluation of Hirzebruch-Jung continued fractions."""

from fractions import Fraction


def continued_fraction_value(coefficients: tuple[int, ...]) -> Fraction:
    """Evaluate b_1 - 1/(b_2 - 1/(... - 1/b_k)) exactly."""
    if not coefficients:
        raise ValueError("empty continued fraction")
    value = Fraction(coefficients[-1])
    for b in reversed(coefficients[:-1]):
        value = b - 1 / value
    return value


def hj_coefficients(n: int, q: int) -> tuple[int, ...]:
    """The Hirzebruch-Jung chain of n/q, curve by curve: b = ceil(n/q),
    then continue with q / (b q - n)."""
    coefficients = []
    while q > 0:
        b = -(-n // q)
        coefficients.append(b)
        n, q = q, b * q - n
    return tuple(coefficients)
