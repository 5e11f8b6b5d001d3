"""An exact spectral oracle in rational arithmetic, for the tests.

The inputs of the spectrum are exact rationals: each frequency is M / D
with the integers M_i and the power of two D of ``_scaled_couplings``, and
each weight is a product of float moduli, which are dyadic. So the exact
spectrum needs only Python ints and ``fractions.Fraction``: the 2^N terms
are enumerated, grouped by their exact frequency, and summed exactly.

The bound on a computed weight follows Higham (Accuracy and Stability of
Numerical Algorithms, 2nd ed., 2002, sec. 3.1). Rounding to nearest gives
fl(x op y) = (x op y)(1 + d) with |d| <= u = 2^-53. If every term of a sum
of nonnegative terms passes through at most k roundings on its way into
the sum, and nothing underflows, the computed sum W' of the exact sum W
satisfies |W' - W| <= gamma_k W, gamma_k = k u / (1 - k u). A term of N
spins is a product of N factors, the first times 1.0 being exact: N - 1
roundings. A line of m terms is formed by m - 1 additions, so no term
passes through more than m - 1 of them, in any order of summation. The
doubling passes it through at most one addition per spin, since the two
runs it merges hold each sum at most once, and through f - 1 more where f
distinct exact sums round to one float (above 2^53) and are folded. Hence

    k = N - 1 + min(m - 1, N + f - 1),

about k units in the last place of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from spinbath import spectrum
from spinbath.model import spin_moduli

UNIT_ROUNDOFF = Fraction(1, 2**53)

# A term at least this large keeps every computed product normal, so the
# relative bound holds.
_SMALLEST_TERM = Fraction(1, 2**1000)


def gamma(k: int) -> Fraction:
    """k u / (1 - k u), the bound of k relative roundings."""
    return Fraction(k, 2**53 - k)


def ulps(value: float, exact: Fraction) -> float:
    """|value - exact| in units in the last place of float(exact)."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def within(value: float, numerator: int, denominator: int, k: int) -> bool:
    """|value - n / d| <= gamma_k n / d for n / d >= 0, in integers: with
    value = p / a, both sides times a d (2^53 - k)."""
    p, a = value.as_integer_ratio()
    return abs(p * denominator - numerator * a) * (2**53 - k) <= k * numerator * a


@dataclass(frozen=True)
class ExactLine:
    omega: float  # the correctly rounded frequency
    multiplicity: int
    weight_numerator: int  # of the exact weight, over 2^scale
    scale: int
    sums: int  # distinct exact sums that round to omega
    roundings: int  # k of the module docstring

    @property
    def weight(self) -> Fraction:
        return Fraction(self.weight_numerator, 1 << self.scale)


def exact_lines(model) -> list[ExactLine]:
    """The merged lines of ``model``, in increasing omega."""
    scaled, denominator = spectrum._scaled_couplings(model)
    a2, b2, _ = spin_moduli(model)
    # each spin's |beta|^2 and |alpha|^2 as integers over one power of two
    factors, exponent = [], 0
    for alpha2, beta2 in zip(a2.tolist(), b2.tolist()):
        (nb, db), (na, da) = beta2.as_integer_ratio(), alpha2.as_integer_ratio()
        common = max(db, da)
        factors.append((nb * (common // db), na * (common // da)))
        exponent += common.bit_length() - 1
    # the 2^N terms, spin 1 at the most significant bit: bit 0 adds M_i and
    # takes |beta_i|^2, bit 1 subtracts M_i and takes |alpha_i|^2
    terms = [(0, 1)]
    for m, (beta_num, alpha_num) in zip(scaled, factors):
        terms = [term for s, w in terms for term in ((s + m, w * beta_num), (s - m, w * alpha_num))]
    smallest = min((w for _, w in terms if w), default=0)
    assert smallest == 0 or Fraction(smallest, 2**exponent) >= _SMALLEST_TERM, "a term underflows"
    by_sum: dict[int, list[int]] = {}
    for s, w in terms:
        count_weight = by_sum.setdefault(s, [0, 0])
        count_weight[0] += 1
        count_weight[1] += w
    by_float: dict[float, list[int]] = {}
    for s, (count, w) in by_sum.items():
        line = by_float.setdefault(s / denominator, [0, 0, 0])  # int / int rounds once
        line[0] += count
        line[1] += w
        line[2] += 1
    n = model.n_spins
    return [
        ExactLine(omega, count, w, exponent, sums, n - 1 + min(count - 1, n + sums - 1))
        for omega, (count, w, sums) in sorted(by_float.items())
    ]


def check_lines(dec, model) -> list[ExactLine]:
    """Assert that ``dec``, a decomposition of ``model``, agrees with the
    exact lines: omegas correctly rounded, multiplicities exact, each
    weight within gamma_k of its exact sum, and ``weight_sum`` the
    correctly rounded sum of the stored weights, within the bound of
    the exact total. Returns the exact lines."""
    lines = exact_lines(model)
    assert dec.omega.tolist() == [line.omega for line in lines]
    assert dec.multiplicity.tolist() == [line.multiplicity for line in lines]
    for weight, line in zip(dec.weight.tolist(), lines):
        assert within(weight, line.weight_numerator, 1 << line.scale, line.roundings), (
            f"line {line.omega!r}: {ulps(weight, line.weight):.2f} ulps from the exact sum, "
            f"bound gamma_{line.roundings}"
        )
    assert dec.weight_sum == math.fsum(dec.weight.tolist())
    total = Fraction(sum(line.weight_numerator for line in lines), 1 << lines[0].scale)
    # each stored weight within its bound, then one rounding of their exact sum
    slack = gamma(max(line.roundings for line in lines)) * total
    assert abs(Fraction(dec.weight_sum) - total) <= slack + UNIT_ROUNDOFF * (total + slack)
    return lines
