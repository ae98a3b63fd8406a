"""Tests for the exact rational/polynomial algebra layer.

Oracles used here are deliberately independent of the implementation:
determinants come from fraction-free Bareiss elimination, and adjugates from
recursive Laplace cofactor expansion over polynomial entries.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carmakit.errors import DimensionMismatch
from carmakit.exactalg import (
    Poly,
    PolyMatrix,
    RationalFunction,
    RationalMatrix,
    _int_divrem,
    format_rational,
    parse_rational,
    poly_gcd,
    poly_gcd_lcm,
    poly_lcm,
    ratmat_equal,
    ratmat_reduce,
    rational_matrix,
    resolvent_numerator,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def bareiss_det(matrix) -> Fraction:
    """Fraction-free Bareiss determinant; independent of Leverrier-Faddeev."""
    a = rational_matrix(matrix)
    n = len(a)
    s = 1
    for row in a:
        for x in row:
            s = s * x.denominator // math.gcd(s, x.denominator)
    m = [[x.numerator * (s // x.denominator) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[-1][-1], s ** n)


def laplace_poly_det(rows) -> Poly:
    """Cofactor-expansion determinant of a square list-of-lists of Poly."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly.zero()
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * laplace_poly_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def laplace_adjugate(rows) -> PolyMatrix:
    """Adjugate by cofactors: adj[i][j] = (-1)^(i+j) det(minor with row j, col i removed)."""
    n = len(rows)
    if n == 1:
        return PolyMatrix.from_rows([[Poly.one()]])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            c = laplace_poly_det(minor)
            row.append(c if (i + j) % 2 == 0 else -c)
        out.append(row)
    return PolyMatrix.from_rows(out)


def resolvent_rows(a):
    """zI - A as a list of lists of Poly, for the oracles above."""
    a = rational_matrix(a)
    n = len(a)
    return [[Poly((-a[i][j],)) + (Poly.variable() if i == j else Poly.zero())
             for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
non_monic_polys = nonzero_polys.filter(lambda p: p.leading_coefficient != 1)


def int_coeffs(p: Poly) -> list:
    """Coefficient list of a polynomial with integer coefficients."""
    return [int(c) for c in p.coeffs]


int_polys = st.lists(st.integers(-30, 30), max_size=7).map(
    lambda cs: int_coeffs(Poly(cs)))
# divisors whose leading coefficient is not a unit, so the kernel must scale
int_divisors = st.builds(lambda low, lead: low + [lead],
                         st.lists(st.integers(-30, 30), max_size=4),
                         st.integers(2, 30) | st.integers(-30, -2))


def random_rational_matrix(rng, n, m):
    return tuple(
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
        for _ in range(n))


# ---------------------------------------------------------------------------
# Rational literals
# ---------------------------------------------------------------------------

class TestRationalLiterals:
    def test_parse_plain_integer(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-3") == Fraction(-3)

    def test_parse_fraction(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-6/8") == Fraction(-3, 4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["", "1.5", "1e3", " 1", "1/ 2", "1/-2", "a/b"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    def test_format_parse_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------

class TestPolyArithmetic:
    def test_product_of_linear_factors(self):
        z = Poly.variable()
        assert (z + Poly.constant(1)) * (z + Poly.constant(2)) == Poly((2, 3, 1))

    def test_divrem_exact_factor(self):
        q, r = divmod(Poly((2, 3, 1)), Poly((1, 1)))
        assert q == Poly((2, 1))
        assert r.is_zero
        # zero dividend
        assert divmod(Poly.zero(), Poly((3, 2))) == (Poly.zero(), Poly.zero())
        # constant divisor
        q, r = divmod(Poly((Fraction(1, 2), 0, 3)), Poly.constant(Fraction(3, 4)))
        assert q == Poly((Fraction(2, 3), 0, 4))
        assert r.is_zero

    def test_divrem_with_remainder(self):
        # z^3 = z*(z^2+1) + (-z)
        q, r = divmod(Poly((0, 0, 0, 1)), Poly((1, 0, 1)))
        assert q == Poly((0, 1))
        assert r == Poly((0, -1))
        # z^2 = (z/2 - 1/4)*(2z+1) + 1/4: a non-unit leading coefficient
        q, r = divmod(Poly((0, 0, 1)), Poly((1, 2)))
        assert q == Poly((Fraction(-1, 4), Fraction(1, 2)))
        assert r == Poly.constant(Fraction(1, 4))
        # dividend of lower degree than the divisor
        a = Poly((1, 2))
        assert divmod(a, Poly((1, 0, 0, Fraction(1, 2)))) == (Poly.zero(), a)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly((1, 1)), Poly.zero())

    def test_zero_polynomial_degree_sentinel(self):
        assert Poly.zero().degree == float("-inf")
        assert Poly.zero().degree < 0
        assert Poly(()) == Poly((0,)) == Poly.zero()

    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((1, 2, 0, 0)).degree == 1

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(polys, nonzero_polys)
    @settings(max_examples=60)
    def test_divrem_reconstruction(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(int_polys, int_divisors)
    @settings(max_examples=100)
    def test_int_divrem_scaled_reconstruction(self, a, b):
        q, r, scale = _int_divrem(a, b)
        assert scale >= 1
        assert Poly(q) * Poly(b) + Poly(r) == Poly(a) * scale
        assert len(r) < len(b)

    @given(int_polys, int_divisors)
    @settings(max_examples=100)
    def test_int_divrem_exact_by_primitive_never_scales(self, a, b):
        g = math.gcd(*b)
        b = [c // g for c in b]
        assert _int_divrem(int_coeffs(Poly(a) * Poly(b)), b) == (a, [], 1)

    @given(polys)
    def test_evaluate_matches_coefficients(self, p):
        x = Fraction(3, 2)
        expected = sum((c * x ** k for k, c in enumerate(p.coeffs)), Fraction(0))
        assert p.evaluate(x) == expected


class TestPolyGcdLcm:
    def test_identical_inputs(self):
        p = Poly((1, 1))
        g, l = poly_gcd_lcm(p, p)
        assert g == p and l == p

    def test_coprime_linear_factors(self):
        g, l = poly_gcd_lcm(Poly((1, 1)), Poly((2, 1)))
        assert g == Poly.one()
        assert l == Poly((2, 3, 1))

    def test_shared_factor(self):
        g, l = poly_gcd_lcm(Poly((-1, 0, 1)), Poly((1, 1)))
        assert g == Poly((1, 1))
        assert l == Poly((-1, 0, 1))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(), Poly.zero())

    def test_gcd_with_one_zero_input(self):
        assert poly_gcd(Poly.zero(), Poly((2, 2))) == Poly((1, 1))

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=50, deadline=None)
    def test_divisibility(self, a, b):
        g, l = poly_gcd_lcm(a, b)
        assert (a % g).is_zero and (b % g).is_zero
        assert (l % a).is_zero and (l % b).is_zero
        # gcd * lcm agrees with a*b up to a nonzero rational factor
        prod = a * b
        scaled = (g * l) * (prod.leading_coefficient)
        assert scaled == prod


# ---------------------------------------------------------------------------
# Resolvent numerator (adjugate + characteristic polynomial)
# ---------------------------------------------------------------------------

class TestResolventNumerator:
    def test_scalar_zero(self):
        adj, charpoly = resolvent_numerator([[0]])
        assert charpoly == Poly.variable()
        assert adj == PolyMatrix.from_rows([[Poly.one()]])

    def test_zero_two_by_two(self):
        adj, charpoly = resolvent_numerator([[0, 0], [0, 0]])
        assert charpoly == Poly((0, 0, 1))
        z = Poly.variable()
        assert adj == PolyMatrix.from_rows([[z, Poly.zero()], [Poly.zero(), z]])

    def test_companion_two_by_two(self):
        adj, charpoly = resolvent_numerator([[0, 1], [-2, -3]])
        assert charpoly == Poly((2, 3, 1))
        z = Poly.variable()
        assert adj == PolyMatrix.from_rows([
            [z + Poly.constant(3), Poly.one()],
            [Poly.constant(-2), z],
        ])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            resolvent_numerator([[1, 2, 3], [4, 5, 6]])

    def test_identity_product_random(self):
        rng = random.Random(20260816)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_rational_matrix(rng, n, n)
            adj, charpoly = resolvent_numerator(a)
            assert charpoly.degree == n
            assert charpoly.leading_coefficient == 1
            lhs = PolyMatrix.from_rows(resolvent_rows(a)) @ adj
            rhs = PolyMatrix.identity(n).scale(charpoly)
            assert lhs == rhs

    def test_charpoly_constant_term_is_signed_determinant(self):
        rng = random.Random(404)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_rational_matrix(rng, n, n)
            _, charpoly = resolvent_numerator(a)
            assert charpoly.coefficient(0) == (-1) ** n * bareiss_det(a)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(77)
        for _ in range(15):
            n = rng.randint(1, 4)
            a = random_rational_matrix(rng, n, n)
            adj, charpoly = resolvent_numerator(a)
            rows = resolvent_rows(a)
            assert charpoly == laplace_poly_det(rows)
            assert adj == laplace_adjugate(rows)


# ---------------------------------------------------------------------------
# Rational functions and rational matrices
# ---------------------------------------------------------------------------

class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        f = RationalFunction(Poly((0, 3)), Poly((3, 3)))
        assert f.num == Poly((0, 1))
        assert f.den == Poly((1, 1))

    def test_zero_is_canonical(self):
        f = RationalFunction(Poly.zero(), Poly((5, 7)))
        assert f.num == Poly.zero() and f.den == Poly.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly.one(), Poly.zero())

    @given(polys, non_monic_polys, non_monic_polys)
    @settings(max_examples=60, deadline=None)
    def test_common_factor_cancels(self, a, b, c):
        assert RationalFunction(a * c, b * c) == RationalFunction(a, b)

    def test_strict_properness(self):
        assert RationalFunction(Poly.one(), Poly((1, 1))).strictly_proper
        assert not RationalFunction(Poly((1, 1)), Poly((1, 1))).strictly_proper
        assert RationalFunction(Poly.zero(), Poly.one()).strictly_proper


class TestRatmatReduce:
    def test_common_factor_cancels_to_constant(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((2, 2))]]), Poly((1, 1)))
        assert h[0, 0] == RationalFunction(Poly.constant(2), Poly.one())

    def test_partial_gcd_reduction(self):
        h = ratmat_reduce(
            PolyMatrix.from_rows([[Poly.one()], [Poly.variable()]]),
            Poly((0, 0, 1)))
        assert h[0, 0] == RationalFunction(Poly.one(), Poly((0, 0, 1)))
        assert h[1, 0] == RationalFunction(Poly.one(), Poly((0, 1)))

    def test_monic_normalization(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((0, 3))]]), Poly((3, 3)))
        assert h[0, 0] == RationalFunction(Poly((0, 1)), Poly((1, 1)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ratmat_reduce(PolyMatrix.identity(1), Poly.zero())

    def test_common_denominator_cache(self):
        # entries 1/(z+1) and 1/(z+2): common den is the monic lcm
        num = PolyMatrix.from_rows([[Poly((2, 1)), Poly((1, 1))]])
        h = ratmat_reduce(num, Poly((2, 3, 1)))
        assert h.common_den == Poly((2, 3, 1))
        assert h.common_num == num

    def test_idempotence(self):
        rng = random.Random(9)
        for _ in range(20):
            num = PolyMatrix.from_rows([
                [Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(rng.randint(0, 4))]) for _ in range(2)]
                for _ in range(2)])
            den = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(3)] + [Fraction(1)])
            h = ratmat_reduce(num, den)
            again = ratmat_reduce(h.common_num, h.common_den)
            assert ratmat_equal(h, again)
            for e in h.entries:
                assert e.den.leading_coefficient == 1
                assert e.is_zero or poly_gcd(e.num, e.den) == Poly.one()


class TestRatmatEqual:
    def test_reflexive(self):
        h = ratmat_reduce(PolyMatrix.identity(2), Poly((1, 1)))
        assert ratmat_equal(h, h)

    def test_equal_after_reduction(self):
        h1 = ratmat_reduce(PolyMatrix.from_rows([[Poly.one()]]), Poly((1, 1)))
        h2 = ratmat_reduce(PolyMatrix.from_rows([[Poly((2, 1))]]), Poly((2, 3, 1)))
        assert ratmat_equal(h1, h2)

    def test_distinct_denominators(self):
        h1 = ratmat_reduce(PolyMatrix.from_rows([[Poly.one()]]), Poly((1, 1)))
        h2 = ratmat_reduce(PolyMatrix.from_rows([[Poly.one()]]), Poly((2, 1)))
        assert not ratmat_equal(h1, h2)

    def test_dimension_mismatch_is_not_equal(self):
        h1 = ratmat_reduce(PolyMatrix.identity(2), Poly((1, 1)))
        h2 = ratmat_reduce(PolyMatrix.identity(1), Poly((1, 1)))
        assert not ratmat_equal(h1, h2)
