"""Tests for the exact rational/polynomial algebra layer.

Oracles used here are deliberately independent of the implementation:
determinants come from fraction-free Bareiss elimination, and adjugates from
recursive Laplace cofactor expansion over polynomial entries.
"""

import cmath
import functools
import itertools
import math
import random
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from carmakit.errors import DimensionMismatch, NotStrictlyProper, OutOfRange
from carmakit.exactalg import (
    Poly,
    PolyMatrix,
    RationalFunction,
    RationalMatrix,
    _int_divrem,
    annihilates,
    as_rational,
    faddeev_leverrier,
    format_rational,
    integer_form,
    integer_matrix,
    markov_blocks,
    markov_series,
    markov_series_equal,
    mat_identity,
    mat_mul,
    parse_rational,
    poly_gcd,
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


def annihilated(a, b, c, pi: Poly) -> bool:
    """:func:`annihilates` on the first ``deg pi + 1`` blocks of ``(a, b,
    c)``, the only ones it reads: whether ``pi(A) B = 0``."""
    form = integer_form(a, b, c)
    return annihilates(pi, form.s, list(itertools.islice(markov_blocks(form),
                                                         pi.degree + 1)))


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

    # the whole string in ASCII digits: no trailing newline, which "$"
    # allows, and no other Unicode digits, which "\d" and int() accept
    @pytest.mark.parametrize("bad", ["3/4\n", "1\n", "\n", "3/\n",
                                     "\uff11", "\u0661/\u0662", "1/\u0662",
                                     "\u00b2", "1_000"])
    def test_only_ascii_literal_accepted(self, bad):
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(bad)

    @given(rationals)
    def test_format_parse_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    @given(rationals)
    def test_format_spells_numerator_over_denominator(self, x):
        spelled = (str(x.numerator) if x.denominator == 1
                   else f"{x.numerator}/{x.denominator}")
        assert format_rational(x) == spelled

    def test_shared_zero_and_one_spell_like_fresh_ones(self):
        shared = mat_identity(2)[0] + (Poly.one().coefficient(3),)
        assert [format_rational(x) for x in shared] == ["1", "0", "0"]
        assert [format_rational(Fraction(x)) for x in (1, 0)] == ["1", "0"]
        assert Poly.zero().coefficient(0) is Poly.one().coefficient(-1)


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


class TestPolyViews:
    """The two views a polynomial keeps: its coefficient literals and its
    integer scale."""

    @given(st.lists(rationals | st.integers(-10**30, 10**30), max_size=7).map(Poly))
    @example(Poly.zero())
    @example(Poly((3, -7, 12)))
    @example(Poly((Fraction(1, 6), 0, Fraction(-5, 4))))
    def test_views_equal_per_call_conversions(self, p):
        assert p.literals == tuple(format_rational(c) for c in p.coeffs)
        s, (ints,) = integer_matrix((p.coeffs,))
        assert p.integer_scale == (s, ints)
        # and, apart from integer_matrix, the least s clearing every denominator
        assert s == math.lcm(*(c.denominator for c in p.coeffs))
        assert tuple(Fraction(x, s) for x in ints) == p.coeffs
        # each view is computed once and kept; neither changes equality
        assert p.literals is p.literals and p.integer_scale is p.integer_scale
        assert p == Poly(p.coeffs) and hash(p) == hash(Poly(p.coeffs))

    def test_unprintable_coefficient_raises_when_the_literals_are_read(self):
        limit = sys.get_int_max_str_digits()
        huge = 10 ** limit                      # limit + 1 digits
        p = Poly((Fraction(1, 2), huge))        # building converts no text
        assert p.integer_scale == (2, (1, 2 * huge))
        with pytest.raises(OutOfRange, match=f"more than {limit} digits"):
            p.literals


def lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple of two nonzero polynomials: the oracle
    for the common denominator of a rational matrix."""
    return (a * b).exact_div(poly_gcd(a, b)).monic()


# the prime modulo which poly_gcd first tests coprimality
PRIME = 2**61 - 1


class TestPolyGcdLcm:
    def test_identical_inputs(self):
        p = Poly((1, 1))
        assert poly_gcd(p, p) == p

    def test_coprime_linear_factors(self):
        for a, b in [
            (Poly((1, 1)), Poly((2, 1))),
            # coprime over Q, but both are z - 1 modulo the prime
            (Poly((-1, 1)), Poly((-1 - PRIME, 1))),
        ]:
            assert poly_gcd(a, b) == Poly.one()

    def test_shared_factor(self):
        for a, b, gcd in [
            (Poly((-1, 0, 1)), Poly((1, 1)), Poly((1, 1))),
            # the prime divides both leading coefficients; modulo the prime
            # the inputs reduce to the coprime z + 2 and z + 3
            (Poly((1, PRIME)) * Poly((2, 1)), Poly((1, PRIME)) * Poly((3, 1)),
             Poly((Fraction(1, PRIME), 1))),
        ]:
            assert poly_gcd(a, b) == gcd

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(), Poly.zero())

    def test_gcd_with_one_zero_input(self):
        assert poly_gcd(Poly.zero(), Poly((2, 2))) == Poly((1, 1))
        assert poly_gcd(Poly((2, 2)), Poly.zero()) == Poly((1, 1))

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=50, deadline=None)
    def test_divisibility(self, a, b):
        g = poly_gcd(a, b)
        assert g.leading_coefficient == 1
        assert (a % g).is_zero and (b % g).is_zero
        # no common factor is left once g is divided out
        assert poly_gcd(a.exact_div(g), b.exact_div(g)) == Poly.one()


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

    @pytest.mark.parametrize("factor", [
        Poly((1, 1)),
        Poly((1, PRIME)),               # the prime divides its leading coefficient
        Poly((-1 - PRIME, 1)),          # z - 1 modulo the prime, like entry (0, 1)
    ])
    def test_planted_factor_cancels(self, factor):
        rest = Poly((6, 5, 1))          # (z + 2)(z + 3)
        num = PolyMatrix.from_rows([[factor * Poly((5, 1)), Poly((-1, 1)), factor]])
        h = ratmat_reduce(num, factor * rest)
        assert (h[0, 0].num, h[0, 0].den) == (Poly((5, 1)), rest)
        lead = factor.leading_coefficient
        assert (h[0, 1].num, h[0, 1].den) == (Poly((-1, 1)) * (1 / lead),
                                              (factor * rest).monic())
        assert (h[0, 2].num, h[0, 2].den) == (Poly.one(), rest)

    def test_common_denominator_cache(self):
        # entries 1/(z+1) and 1/(z+2), as a row and as a column: gcd(det,
        # z + 2) is z + 2, so the gcd chain reads the second entry before it
        # keeps det = (z+1)(z+2), the monic lcm
        for num in (PolyMatrix.from_rows([[Poly((2, 1)), Poly((1, 1))]]),
                    PolyMatrix.from_rows([[Poly((2, 1))], [Poly((1, 1))]])):
            h = ratmat_reduce(num, Poly((2, 3, 1)))
            assert h.common_den == Poly((2, 3, 1))
            assert h.common_num == num
        # [1/(z+1), 2/(z+1)]: z + 2 divides every entry and cancels
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((2, 1)), Poly((4, 2))]]),
                          Poly((2, 3, 1)))
        assert h.common_den == Poly((1, 1))
        assert h.common_num == PolyMatrix.from_rows([[Poly.one(), Poly.constant(2)]])
        # from_rows: entry (0, 1) repeats a denominator and entry (1, 0) has
        # the common denominator itself, next to a zero entry
        z1, z2, z12 = Poly((1, 1)), Poly((2, 1)), Poly((2, 3, 1))
        h = RationalMatrix.from_rows([
            [RationalFunction(a, b) for a, b in row] for row in [
                [(Poly.one(), z1), (Poly.constant(2), z1), (Poly.one(), z2)],
                [(Poly.variable(), z12), (Poly.zero(), z2), (Poly.one(), z1)]]])
        assert h.common_den == z12
        assert h.common_num == PolyMatrix.from_rows([
            [Poly((2, 1)), Poly((4, 2)), Poly((1, 1))],
            [Poly((0, 1)), Poly.zero(), Poly((2, 1))],
        ])

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_common_den_is_the_lcm_of_the_entries(self, d, m, data):
        rows = [[RationalFunction(data.draw(polys), data.draw(nonzero_polys))
                 for _ in range(m)] for _ in range(d)]
        h = RationalMatrix.from_rows(rows)
        assert h.common_den == functools.reduce(
            lcm, (e.den for row in rows for e in row))
        assert [[h[i, j] for j in range(m)] for i in range(d)] == rows

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduce_is_from_rows_of_the_reduced_entries(self, d, m, data):
        num = PolyMatrix(d, m, tuple(data.draw(polys) for _ in range(d * m)))
        den = data.draw(nonzero_polys)
        assert ratmat_reduce(num, den) == RationalMatrix.from_rows(
            [[RationalFunction(e, den) for e in num.row(i)] for i in range(d)])

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
            expected, powers, ak_b = [], [], b
            for _ in range(2 * n + 1):
                expected.append(sum(mat_mul(c, ak_b), ()))
                powers.append(ak_b)
                ak_b = mat_mul(a, ak_b)
            form = integer_form(a, b, c)
            assert fraction_terms(markov_series(form), 2 * n + 1) == expected
            # X_k = (s*A)^k (s_b*B)
            blocks = itertools.islice(markov_blocks(form), 2 * n + 1)
            assert [tuple(tuple(Fraction(v, form.s ** k * form.s_b) for v in row)
                          for row in x)
                    for k, x in enumerate(blocks)] == powers

    def test_zero_count_is_empty(self):
        one = ((Fraction(1),),)
        assert fraction_terms(markov_series(integer_form(one, one, one)), 0) == []

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
            markov_series(integer_form(a, b, c)), 8)

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

    def test_head_is_kept_on_the_matrix(self):
        # (z + 2, 3) / (z^2 - z + 1/2): p = 2, so the head is h_0 and h_1
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((2, 1)), Poly((3,))]]),
                          Poly((Fraction(1, 2), -1, 1)))
        head = h.markov_head
        assert h.markov_head is head
        assert fraction_terms(iter(head), 2) == [(1, 0), (3, 3)]
        assert all(isinstance(nums, tuple) for _, nums in head)
        # the series yields the head, then continues the recurrence from it
        assert fraction_terms(ratmat_markov_series(h), 4) == [
            (1, 0), (3, 3), (Fraction(5, 2), Fraction(3)), (1, Fraction(3, 2))]
        with pytest.raises(FrozenInstanceError):
            h.markov_head = ()


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
            assert markov_series_equal(markov_series(integer_form(a, b, c)),
                                       markov_series(integer_form(a, b2, c2)),
                                       2 * n)

    def test_only_first_count_terms_compared(self):
        # 2/(z - 3/2) has h_j = 2 (3/2)^j; A = [[1]], B = [[2]], C = [[1]]
        # gives 2 for every j, so the two agree in h_0 only
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((2,))]]),
                          Poly((Fraction(-3, 2), 1)))
        a, b, c = rational_matrix([[1]]), rational_matrix([[2]]), rational_matrix([[1]])
        assert markov_series_equal(ratmat_markov_series(h),
                                   markov_series(integer_form(a, b, c)), 1)
        assert not markov_series_equal(ratmat_markov_series(h),
                                       markov_series(integer_form(a, b, c)), 2)

    def test_no_term_past_count_is_computed(self):
        def one_term():
            yield 1, [1]
            raise AssertionError("term past count was computed")
        assert markov_series_equal(one_term(), one_term(), 1)

    def test_shape_mismatch_is_not_equal(self):
        assert not markov_series_equal(iter([(1, [1, 2])]), iter([(1, [1])]), 1)


class TestMarkovAnnihilator:
    def test_characteristic_polynomial_annihilates(self):
        # Cayley-Hamilton: det(zI - A) annihilates every B
        rng = random.Random(5151)
        for _ in range(30):
            n, m, d = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            a = random_rational_matrix(rng, n, n)
            b = random_rational_matrix(rng, n, m)
            c = random_rational_matrix(rng, d, n)
            _, chi = faddeev_leverrier(integer_form(a, b, c))
            assert annihilated(a, b, c, chi)

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
                assert annihilated(a, b, c, den)
            # B, AB, ..., A^(p-1) B are independent for the controller input,
            # so no polynomial of lower degree annihilates it
            b = unit_input(p, k)
            for factor in (f, g):
                assert not annihilated(a, b, c, factor)

    def test_degree_zero_annihilates_only_zero_input(self):
        # pi = 1: pi(A) B = B
        a = rational_matrix([[1, 2], [Fraction(-1, 3), 0]])
        c = rational_matrix([[1, 1]])
        assert not annihilated(a, rational_matrix([[0], [1]]), c, Poly.one())
        assert annihilated(a, rational_matrix([[0], [0]]), c, Poly.one())

    def test_zero_input_is_annihilated_by_every_polynomial(self):
        rng = random.Random(5153)
        a = random_rational_matrix(rng, 3, 3)
        b = rational_matrix([[0, 0]] * 3)
        c = random_rational_matrix(rng, 2, 3)
        for degree in range(4):
            assert annihilated(a, b, c, random_monic(rng, degree))


# ---------------------------------------------------------------------------
# Refusals the tests above do not reach
# ---------------------------------------------------------------------------

ONE = RationalFunction(Poly.one(), Poly.one())
REFUSALS = {
    "float-scalar": (lambda: as_rational(0.5), TypeError, "cannot interpret"),
    "no-rows": (lambda: rational_matrix([]), DimensionMismatch,
                "at least one row and one column"),
    "empty-row": (lambda: rational_matrix([[]]), DimensionMismatch,
                  "at least one row and one column"),
    "ragged-rows": (lambda: rational_matrix([[1, 2], [3]]), DimensionMismatch,
                    "ragged"),
    "matrix-product-shapes": (
        lambda: mat_mul(rational_matrix([[1, 2]]), rational_matrix([[1, 2]])),
        DimensionMismatch, "cannot multiply 1x2 by 1x2"),
    "zero-leading-coefficient": (lambda: Poly.zero().leading_coefficient,
                                 ValueError, "no leading coefficient"),
    "inexact-division": (  # the message shows both operands' reprs
        lambda: Poly((1, 1)).exact_div(Poly((0, 1))), ValueError,
        r"^Poly\(coeffs=\(Fraction\(1, 1\), Fraction\(1, 1\)\)\) is not "
        r"divisible by Poly\(coeffs=\(Fraction\(0, 1\), Fraction\(1, 1\)\)\)$"),
    "zero-to-monic": (lambda: Poly.zero().monic(), ValueError,
                      "zero polynomial to monic"),
    "empty-poly-matrix": (lambda: PolyMatrix(0, 1, ()), DimensionMismatch,
                          "at least 1x1"),
    "poly-matrix-entry-count": (lambda: PolyMatrix(1, 2, (Poly.one(),)),
                                DimensionMismatch, "needs 2 entries, got 1"),
    "poly-matrix-product-shapes": (
        lambda: PolyMatrix.identity(2) @ PolyMatrix.identity(1),
        DimensionMismatch, "cannot multiply 2x2 by 1x1"),
    "poly-matrix-no-rows": (lambda: PolyMatrix.from_rows([]), DimensionMismatch,
                            "at least one row and one column"),
    "poly-matrix-empty-row": (lambda: PolyMatrix.from_rows([[]]),
                              DimensionMismatch, "at least one row and one column"),
    "poly-matrix-ragged-rows": (
        lambda: PolyMatrix.from_rows([[Poly.one()], [Poly.one(), Poly.one()], []]),
        DimensionMismatch, "ragged"),
    "empty-rational-matrix": (lambda: RationalMatrix(PolyMatrix(1, 0, ()), Poly.one()),
                              DimensionMismatch, "at least 1x1"),
    "rational-matrix-zero-denominator": (
        lambda: RationalMatrix(PolyMatrix.identity(1), Poly.zero()),
        ZeroDivisionError, "zero denominator"),
    "rational-matrix-no-rows": (lambda: RationalMatrix.from_rows([]),
                                DimensionMismatch, "at least one row and one column"),
    "rational-matrix-ragged-rows": (
        lambda: RationalMatrix.from_rows([[ONE], [ONE, ONE], []]),
        DimensionMismatch, "ragged"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(),
                         ids=list(REFUSALS))
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
