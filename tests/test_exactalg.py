"""Tests for the exact rational/polynomial algebra layer.

Oracles used here are deliberately independent of the implementation:
determinants come from fraction-free Bareiss elimination, and adjugates from
recursive Laplace cofactor expansion over polynomial entries.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from carmakit.errors import DimensionMismatch, NotStrictlyProper
from carmakit.exactalg import (
    Poly,
    PolyMatrix,
    RationalFunction,
    RationalMatrix,
    _int_divrem,
    faddeev_leverrier,
    format_rational,
    markov_series,
    markov_series_equal,
    mat_mul,
    parse_rational,
    poly_gcd,
    poly_lcm,
    ratmat_equal,
    ratmat_markov_series,
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


def random_monic(rng, degree) -> Poly:
    return Poly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(degree)) + (1,))


def scalar_block_companion(den: Poly, k: int):
    """The drift built from ``den(z) I_k``, ``den = z^p + a_1 z^(p-1) + ...
    + a_p``: identity blocks on the superdiagonal and the last block row
    ``(-a_p I, ..., -a_1 I)``."""
    p = den.degree
    n = p * k
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - k):
        rows[i][i + k] = Fraction(1)
    for j in range(p):
        for r in range(k):
            rows[n - k + r][j * k + r] = -den.coefficient(j)
    return tuple(map(tuple, rows))


def unit_input(p: int, k: int):
    """``B = (0, ..., 0, I_k)^T`` of a p-block controller form."""
    return tuple(tuple(Fraction(int(i == (p - 1) * k + j)) for j in range(k))
                 for i in range(p * k))


def fraction_terms(series, count: int) -> list:
    """The first ``count`` terms of a ``(den, nums)`` series, as
    :func:`markov_series` and :func:`ratmat_markov_series` yield them, each
    the tuple of its exact entries, row by row."""
    return [tuple(Fraction(x, den) for x in nums)
            for den, nums in itertools.islice(series, count)]


def annihilated_terms(a, b, c, pi: Poly) -> list:
    """The terms :func:`markov_series` yields with annihilator ``pi``, up
    to ``deg pi + 1`` of them: exactly ``deg pi`` iff ``pi(A) B = 0``."""
    return fraction_terms(markov_series(a, b, c, pi), pi.degree + 1)


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


def gcd_lcm(a: Poly, b: Poly) -> tuple:
    return poly_gcd(a, b), poly_lcm(a, b)


class TestPolyGcdLcm:
    def test_identical_inputs(self):
        p = Poly((1, 1))
        g, l = gcd_lcm(p, p)
        assert g == p and l == p

    def test_coprime_linear_factors(self):
        g, l = gcd_lcm(Poly((1, 1)), Poly((2, 1)))
        assert g == Poly.one()
        assert l == Poly((2, 3, 1))

    def test_shared_factor(self):
        g, l = gcd_lcm(Poly((-1, 0, 1)), Poly((1, 1)))
        assert g == Poly((1, 1))
        assert l == Poly((-1, 0, 1))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(), Poly.zero())

    def test_gcd_with_one_zero_input(self):
        assert poly_gcd(Poly.zero(), Poly((2, 2))) == Poly((1, 1))

    def test_lcm_with_a_zero_input_is_zero(self):
        assert poly_lcm(Poly.zero(), Poly((2, 2))).is_zero
        assert poly_lcm(Poly((2, 2)), Poly.zero()).is_zero
        assert poly_lcm(Poly.zero(), Poly.zero()).is_zero

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=50, deadline=None)
    def test_divisibility(self, a, b):
        g, l = gcd_lcm(a, b)
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

    @example(Poly.one(), Poly((1, 3, 3, 1)), 1e200)  # den(z) = nan - inf*j
    @given(polys, nonzero_polys,
           st.sampled_from((0.5, 1.5, 10.0, 1e50, -1e100, 1e200)))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_reads_in_reciprocal_only_past_overflow(self, a, b, omega):
        f = RationalFunction(a, b)
        z = 1j * omega
        assume(f.den.evaluate(z) != 0)
        direct = f.num.evaluate(z) / f.den.evaluate(z)
        if cmath.isfinite(direct):
            assert f.evaluate(z) == direct
        elif f.strictly_proper and abs(omega) > 1e99:
            # small coefficients keep |f| near |num lead| / |omega|^(deg gap)
            assert abs(f.evaluate(z)) < 1e-95

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


# ---------------------------------------------------------------------------
# Markov parameters
# ---------------------------------------------------------------------------

class TestMarkovParameters:
    def test_matches_matrix_powers(self):
        rng = random.Random(4242)
        for _ in range(30):
            n, m, d = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            a = random_rational_matrix(rng, n, n)
            b = random_rational_matrix(rng, n, m)
            c = random_rational_matrix(rng, d, n)
            expected, ak_b = [], b
            for _ in range(2 * n + 1):
                expected.append(sum(mat_mul(c, ak_b), ()))
                ak_b = mat_mul(a, ak_b)
            assert fraction_terms(markov_series(a, b, c), 2 * n + 1) == expected

    def test_zero_count_is_empty(self):
        one = ((Fraction(1),),)
        assert fraction_terms(markov_series(one, one, one), 0) == []

    def test_series_of_simple_pole(self):
        # 2/(z - 3/2) = sum_j 2 (3/2)^j z^-(j+1)
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((2,))]]),
                          Poly((Fraction(-3, 2), 1)))
        assert fraction_terms(ratmat_markov_series(h), 5) == [
            (2 * Fraction(3, 2) ** j,) for j in range(5)]

    def test_series_matches_realization(self):
        # z/(z^2 + z/3 - 2) in controller form: A = [[0, 1], [2, -1/3]],
        # B = e_2, C = (0, 1)
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((0, 1))]]),
                          Poly((-2, Fraction(1, 3), 1)))
        a = rational_matrix([[0, 1], [2, Fraction(-1, 3)]])
        b, c = rational_matrix([[0], [1]]), rational_matrix([[0, 1]])
        assert fraction_terms(ratmat_markov_series(h), 8) == fraction_terms(
            markov_series(a, b, c), 8)

    def test_series_of_zero_matrix(self):
        h = ratmat_reduce(PolyMatrix.zero(2, 3), Poly.one())
        assert fraction_terms(ratmat_markov_series(h), 3) == [
            (Fraction(0),) * 6] * 3

    def test_series_rejects_improper(self):
        # one improper entry, (z + 2)/(z + 1), beside a proper one
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly.one(), Poly((2, 1))]]),
                          Poly((1, 1)))
        with pytest.raises(NotStrictlyProper):
            fraction_terms(ratmat_markov_series(h), 2)

    def test_improper_rejected_before_first_term(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((1, 1))]]), Poly((2, 1)))
        with pytest.raises(NotStrictlyProper):
            ratmat_markov_series(h)


class TestMarkovSeriesEqual:
    def test_different_scalings_compare_equal(self):
        # B/2 and 2C give the same C A^k B over other integer denominators
        rng = random.Random(77)
        for _ in range(10):
            n, m, d = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            a = random_rational_matrix(rng, n, n)
            b = random_rational_matrix(rng, n, m)
            c = random_rational_matrix(rng, d, n)
            b2 = tuple(tuple(x / 2 for x in row) for row in b)
            c2 = tuple(tuple(2 * x for x in row) for row in c)
            assert markov_series_equal(markov_series(a, b, c),
                                       markov_series(a, b2, c2), 2 * n)

    def test_only_first_count_terms_compared(self):
        # 2/(z - 3/2) has h_j = 2 (3/2)^j; A = [[1]], B = [[2]], C = [[1]]
        # gives 2 for every j, so the two agree in h_0 only
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((2,))]]),
                          Poly((Fraction(-3, 2), 1)))
        a, b, c = rational_matrix([[1]]), rational_matrix([[2]]), rational_matrix([[1]])
        assert markov_series_equal(ratmat_markov_series(h),
                                   markov_series(a, b, c), 1)
        assert not markov_series_equal(ratmat_markov_series(h),
                                       markov_series(a, b, c), 2)

    def test_no_term_past_count_is_computed(self):
        def one_term():
            yield 1, [1]
            raise AssertionError("term past count was computed")
        assert markov_series_equal(one_term(), one_term(), 1)

    def test_shape_mismatch_is_not_equal(self):
        assert not markov_series_equal(iter([(1, [1, 2])]), iter([(1, [1])]), 1)


class TestMarkovAnnihilator:
    def test_characteristic_polynomial_annihilates(self):
        # Cayley-Hamilton: det(zI - A) annihilates every B, and the series
        # ends after its first N terms, which are the usual ones
        rng = random.Random(5151)
        for _ in range(30):
            n, m, d = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            a = random_rational_matrix(rng, n, n)
            b = random_rational_matrix(rng, n, m)
            c = random_rational_matrix(rng, d, n)
            _, chi = faddeev_leverrier(a, b, c)
            assert annihilated_terms(a, b, c, chi) == fraction_terms(
                markov_series(a, b, c), n)

    def test_scalar_denominator_annihilates_its_block_companion(self):
        rng = random.Random(5152)
        for _ in range(12):
            f = random_monic(rng, rng.randint(1, 3))
            g = random_monic(rng, rng.randint(1, 3))
            den, k = f * g, rng.randint(1, 3)
            p = den.degree
            a = scalar_block_companion(den, k)
            c = random_rational_matrix(rng, 2, p * k)
            for b in (unit_input(p, k), random_rational_matrix(rng, p * k, 2)):
                assert len(annihilated_terms(a, b, c, den)) == p
            # B, AB, ..., A^(p-1) B are independent for the controller input,
            # so no polynomial of lower degree annihilates it
            b = unit_input(p, k)
            for factor in (f, g):
                assert annihilated_terms(a, b, c, factor) == fraction_terms(
                    markov_series(a, b, c), factor.degree + 1)

    def test_degree_zero_annihilates_only_zero_input(self):
        # pi = 1: pi(A) B = B
        a = rational_matrix([[1, 2], [Fraction(-1, 3), 0]])
        c = rational_matrix([[1, 1]])
        assert len(annihilated_terms(a, rational_matrix([[0], [1]]), c,
                                     Poly.one())) == 1
        assert annihilated_terms(a, rational_matrix([[0], [0]]), c,
                                 Poly.one()) == []

    def test_zero_input_is_annihilated_by_every_polynomial(self):
        rng = random.Random(5153)
        a = random_rational_matrix(rng, 3, 3)
        b = rational_matrix([[0, 0]] * 3)
        c = random_rational_matrix(rng, 2, 3)
        for degree in range(4):
            assert annihilated_terms(a, b, c, random_monic(rng, degree)) == [
                (Fraction(0),) * 4] * degree
