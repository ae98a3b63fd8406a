"""Exact rational arithmetic: scalars, univariate polynomials, polynomial
matrices and rational-function matrices.

Everything in this module is computed over arbitrary-precision rationals
(``fractions.Fraction``), so equality of polynomials and rational matrices is
a decision procedure rather than a tolerance question.  Conventions:

* polynomial coefficients are stored ascending in degree; the zero polynomial
  is the empty coefficient tuple and has degree ``-inf``;
* rational functions are kept in canonical form: coprime numerator and
  denominator, denominator monic, the zero function is ``0/1``;
* a rational matrix caches a common-denominator form ``H = common_num /
  common_den`` where ``common_den`` is the monic LCM of the entry
  denominators.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatch, NotStrictlyProper, OutOfRange

Rational = Fraction
RationalLike = Union[Fraction, int, str]

NEG_INFINITY = float("-inf")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``"p"`` or ``"p/q"`` with decimal integers.

    The denominator must be a positive integer; ``"1/0"`` and anything that
    is not a plain integer fraction (floats, whitespace padding, exponents)
    raise ``ValueError``.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"invalid rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`: ``"p"`` for integers, else ``"p/q"``.

    Raises :class:`OutOfRange` if a part has more digits than the
    interpreter's limit for integer string conversion."""
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise OutOfRange(
            f"exact result has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for integer string conversion") from exc


def as_rational(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# Constant rational matrices (plain tuples of tuples of Fraction)
# ---------------------------------------------------------------------------

RationalMatrixData = tuple

def rational_matrix(rows: Sequence[Sequence[RationalLike]]) -> RationalMatrixData:
    """Convert nested sequences into a rectangular tuple-of-tuples of Fraction."""
    out = tuple(tuple(as_rational(x) for x in row) for row in rows)
    if not out or not out[0]:
        raise DimensionMismatch("matrix must have at least one row and one column")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise DimensionMismatch("ragged matrix rows")
    return out


def mat_identity(n: int) -> RationalMatrixData:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_zeros(rows: int, cols: int) -> RationalMatrixData:
    zero = Fraction(0)
    return tuple((zero,) * cols for _ in range(rows))


def mat_add(a: RationalMatrixData, b: RationalMatrixData) -> RationalMatrixData:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: RationalMatrixData, b: RationalMatrixData) -> RationalMatrixData:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: RationalMatrixData, b: RationalMatrixData) -> RationalMatrixData:
    if len(a[0]) != len(b):
        raise DimensionMismatch(
            f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_is_zero(a: RationalMatrixData) -> bool:
    return all(x == 0 for row in a for x in row)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over the rationals.

    ``coeffs[k]`` is the coefficient of ``z**k``.  Trailing zeros are stripped
    on construction, so the representation is canonical: the zero polynomial
    is the empty tuple, and otherwise the leading coefficient is nonzero.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = [as_rational(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial ``z``."""
        return cls((0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        """Degree, with ``-inf`` for the zero polynomial so that strict
        degree comparisons remain well-defined."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        c = as_rational(other)
        return Poly(tuple(c * x for x in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        """Euclidean division: returns ``(q, r)`` with ``self = q*other + r``
        and ``deg r < deg other``.  Raises on division by the zero polynomial.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ca, a = _int_primitive(self)
        cb, b = _int_primitive(other)
        q, r, scale = _int_divrem(a, b)
        cr = ca / scale
        cq = cr / cb
        return Poly(tuple(cq * c for c in q)), Poly(tuple(cr * c for c in r))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must be exact; raises ``ValueError`` on a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial to monic")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, float and complex ``x``."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, Fraction) else
                             c.numerator / c.denominator)
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = format_rational(c)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    term = zk
                elif c == -1:
                    term = f"-{zk}"
                else:
                    term = f"{format_rational(c)}*{zk}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


# -- division, gcd and lcm over the rationals.  Every polynomial division in
#    this module -- divmod, exact_div, the gcd's remainder sequence, and so
#    the reduction of rational functions -- runs the one integer routine
#    _int_divrem on primitive coefficient lists, which keeps coefficient
#    growth polynomial and builds no Fraction until the result. -------------

def _int_primitive(p: Poly) -> tuple:
    """``(content, ints)``: ``p == content * ints`` with ``ints`` the
    primitive integer coefficient list of ``p`` (empty for zero)."""
    s, (ints,) = integer_matrix((p.coeffs,))
    g = math.gcd(*ints)
    return Fraction(g, s), [c // g for c in ints]


def _int_divrem(a: list, b: list) -> tuple:
    """``(q, r, scale)`` with ``scale*a == q*b + r``, ``deg r < deg b`` and
    ``scale >= 1``, for integer coefficient lists (ascending, no trailing
    zeros, ``b`` nonzero).  The running remainder is scaled only when
    ``lead(b)`` does not divide its leading coefficient, so dividing by a
    primitive ``b`` that divides ``a`` keeps ``scale == 1``."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * max(len(r) - db, 0)
    scale = 1
    while len(r) > db:
        f, rem = divmod(r[-1], lb)
        if rem:
            m = abs(lb) // math.gcd(r[-1], lb)
            r = [m * c for c in r]
            q = [m * c for c in q]
            scale *= m
            f = r[-1] // lb
        shift = len(r) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return q, r, scale


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.  Raises if both inputs are zero."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x, y = _int_primitive(a)[1], _int_primitive(b)[1]
    if len(x) < len(y):
        x, y = y, x
    while y:
        r = _int_divrem(x, y)[1]
        g = math.gcd(*r)
        x, y = y, [c // g for c in r]
    return Poly(x).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple; zero if either input is zero."""
    if a.is_zero or b.is_zero:
        return Poly.zero()
    return (a * b.exact_div(poly_gcd(a, b))).monic()


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of :class:`Poly`, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch("polynomial matrix must be at least 1x1")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        flat = tuple(e for row in rows for e in row)
        return cls(len(rows), len(rows[0]), flat)

    @classmethod
    def from_scalar_matrix(cls, data: Sequence[Sequence[RationalLike]]) -> "PolyMatrix":
        """Embed a constant rational matrix as degree-0 polynomials."""
        m = rational_matrix(data)
        return cls.from_rows([[Poly.constant(x) for x in row] for row in m])

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls.from_scalar_matrix(mat_identity(n))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(rows, cols, (Poly.zero(),) * (rows * cols))

    def __getitem__(self, key) -> Poly:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @property
    def degree(self) -> Union[int, float]:
        return max((e.degree for e in self.entries), default=NEG_INFINITY)

    def coefficient_matrix(self, k: int) -> RationalMatrixData:
        """The rational matrix of ``z**k`` coefficients, entrywise."""
        return tuple(
            tuple(self[i, j].coefficient(k) for j in range(self.cols))
            for i in range(self.rows))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            lhs_row = self.row(i)
            for j in range(other.cols):
                acc = Poly.zero()
                for k in range(self.cols):
                    acc = acc + lhs_row[k] * other[k, j]
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, tuple(out))

    def scale(self, factor) -> "PolyMatrix":
        """Multiply every entry by a Poly or rational scalar."""
        if not isinstance(factor, Poly):
            factor = Poly.constant(factor)
        return PolyMatrix(self.rows, self.cols,
                          tuple(factor * e for e in self.entries))


# ---------------------------------------------------------------------------
# Resolvent numerator and Markov parameters: integer iterations on s*A
# ---------------------------------------------------------------------------

def integer_matrix(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """``(s, ints)`` with ``s`` the least common multiple of the entry
    denominators and ``ints = s * matrix`` as lists of plain integers."""
    s = 1
    for row in matrix:
        for x in row:
            s = s * x.denominator // math.gcd(s, x.denominator)
    return s, [[x.numerator * (s // x.denominator) for x in row] for row in matrix]


def nonzero_entries(rows) -> list:
    """Each row as its ``(column, value)`` pairs with nonzero value."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def _row_combination(pairs: list, mk: list, n: int) -> list:
    """Row ``sum(v * mk[t] for t, v in pairs)``, always a fresh list."""
    if not pairs:
        return [0] * n
    if len(pairs) == 1:
        t, v = pairs[0]
        return [v * x for x in mk[t]]
    coeffs = [v for _, v in pairs]
    return [sum(map(operator.mul, coeffs, col))
            for col in zip(*[mk[t] for t, _ in pairs])]


def faddeev_leverrier(a: RationalMatrixData, b: RationalMatrixData,
                      c: RationalMatrixData) -> tuple:
    """``(num, charpoly)``: the d x m polynomial matrix ``num = C adj(z*I - A)
    B``, not reduced, and the monic degree-N ``charpoly = det(z*I - A)``, for
    ``A`` N x N, ``B`` N x m and ``C`` d x N, by the Faddeev-LeVerrier
    iteration.

    ``A`` is scaled to the integer matrix ``s*A`` (``s`` the lcm of its
    denominators), whose iterates are plain integers: ``M_1 = I``,
    ``c_k = -tr(s*A M_k) / k`` (an exact division) and
    ``M_(k+1) = s*A M_k + c_k I``.  Then ``det(z*I - A) = z^N +
    sum_k c_k s^-k z^(N-k)`` and ``adj(z*I - A) = sum_k M_k s^-(k-1) z^(N-k)``
    (Gantmacher, *Theory of Matrices* I, 4.5).

    The N x N adjugate is never built.  With ``B`` and ``C`` scaled to
    integers by their own denominators ``s_B`` and ``s_C``, each ``M_k`` is
    multiplied by the nonzero entries of ``B``, in the rows that ``C`` reads
    only, and then by the nonzero entries of ``C``; that d x m product over
    ``s_C s_B s^(k-1)`` is the numerator's ``z^(N-k)`` coefficient.  Each row
    of ``s*A`` is kept as its nonzero entries too, since block-companion
    drifts are mostly zero, and the last step forms only the trace of
    ``s*A M_N``.
    """
    n = len(a)
    s, scaled = integer_matrix(a)
    rows = nonzero_entries(scaled)
    s_b, b_ints = integer_matrix(b)
    s_c, c_ints = integer_matrix(c)
    b_cols = nonzero_entries(zip(*b_ints))
    c_rows = nonzero_entries(c_ints)
    d, m = len(c_rows), len(b_cols)
    # only the rows of M_k B that some row of C reads
    used = {t for pairs in c_rows for t, _ in pairs}
    num_coeffs = [[] for _ in range(d * m)]     # descending powers of z
    char_coeffs = [Fraction(1)]                 # likewise: z^N, z^(N-1), ...
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mb = {t: [sum(mk[t][r] * v for r, v in col) for col in b_cols]
              for t in used}
        den = s_c * s_b * s ** (k - 1)
        for i, pairs in enumerate(c_rows):
            for j in range(m):
                num_coeffs[i * m + j].append(
                    Fraction(sum(v * mb[t][j] for t, v in pairs), den))
        if k < n:
            am = [_row_combination(pairs, mk, n) for pairs in rows]
            tr = sum(am[i][i] for i in range(n))
        else:
            tr = sum(v * mk[t][i] for i, pairs in enumerate(rows) for t, v in pairs)
        ck, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("Faddeev trace division was not exact")
        char_coeffs.append(Fraction(ck, s ** k))
        if k < n:
            for i in range(n):
                am[i][i] += ck
            mk = am
    num = PolyMatrix(d, m, tuple(Poly(cs[::-1]) for cs in num_coeffs))
    return num, Poly(char_coeffs[::-1])


def markov_series(a: RationalMatrixData, b: RationalMatrixData,
                  c: RationalMatrixData,
                  annihilator: Optional[Poly] = None) -> Iterator[tuple]:
    """The Markov parameters ``C A^k B``, ``k = 0, 1, ...``, for ``A`` N x N,
    ``B`` N x m and ``C`` d x N, as ``(den, nums)``: the d*m integer
    numerators, row by row, over one positive denominator.

    ``A``, ``B`` and ``C`` are scaled to integers as in
    :func:`faddeev_leverrier`, and the rows of ``s*A`` are kept as their
    nonzero entries.  The integer N x m block ``X_k = (s*A)^k (s_B*B)`` is
    iterated, never an N x N power, and ``C A^k B = (s_C*C) X_k / (s_C s_B
    s^k)``.  No ``Fraction`` is built, and a term is computed only when it
    is asked for.

    Given an ``annihilator`` ``pi = sum_i pi_i z^i`` of degree ``p``, the
    same iterates also decide whether ``pi(A) B = 0``.  With ``D`` the lcm
    of the denominators of the ``pi_i``, ``D s^p s_B pi(A) B = sum_(i<=p)
    (D pi_i) s^(p-i) X_i``, an integer block summed by Horner's rule in
    ``s`` as ``X_0, ..., X_p`` are formed.  If it is zero, the series ends
    after its first ``p`` terms: ``sum_i pi_i C A^(k+i) B = C A^k pi(A) B =
    0`` for every ``k``, so those ``p`` terms fix all the others through
    the recurrence with characteristic polynomial ``pi``.  Otherwise the
    series goes on without end, as it does with no annihilator.
    """
    s, scaled = integer_matrix(a)
    rows = nonzero_entries(scaled)
    s_b, x = integer_matrix(b)
    s_c, c_ints = integer_matrix(c)
    c_rows = nonzero_entries(c_ints)
    m = len(x[0])
    den = s_c * s_b
    pi = [] if annihilator is None else integer_matrix((annihilator.coeffs,))[1][0]
    acc = [[0] * m for _ in x]
    for k in itertools.count():
        if k < len(pi):
            acc = [[s * u + pi[k] * v for u, v in zip(acc_row, x_row)]
                   for acc_row, x_row in zip(acc, x)]
            if k == len(pi) - 1 and not any(map(any, acc)):
                return
        yield den, [sum(v * x[t][j] for t, v in pairs)
                    for pairs in c_rows for j in range(m)]
        x = [_row_combination(pairs, x, m) for pairs in rows]
        den *= s


def markov_series_equal(first: Iterator[tuple], second: Iterator[tuple],
                        count: int) -> bool:
    """Whether two ``(den, nums)`` series, as :func:`markov_series` and
    :func:`ratmat_markov_series` yield them, agree in their first ``count``
    terms.  Terms are compared by cross-multiplying the integers, in order,
    and the comparison stops at the first that differs.  It also stops,
    with agreement, when a series ends: a :func:`markov_series` with an
    annihilator ends only when its later terms follow from the earlier ones,
    so this is sound when the other series satisfies the same recurrence."""
    for _, (den1, nums1), (den2, nums2) in zip(range(count), first, second):
        if len(nums1) != len(nums2) or any(
                x * den2 != y * den1 for x, y in zip(nums1, nums2)):
            return False
    return True


def resolvent_numerator(matrix: Sequence[Sequence[RationalLike]]):
    """Adjugate and characteristic polynomial of ``z*I - A``, exactly.

    This is the ``B = C = I`` case of :func:`faddeev_leverrier`: the
    polynomial matrix ``adj(z*I - A)`` satisfies ``(z*I - A) @ adj ==
    charpoly * I`` with ``charpoly = det(z*I - A)`` monic of degree N.

    Returns
    -------
    (adjugate, charpoly) : (PolyMatrix, Poly)
    """
    a = rational_matrix(matrix)
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("resolvent requires a square matrix")
    eye = mat_identity(n)
    return faddeev_leverrier(a, eye, eye)


# ---------------------------------------------------------------------------
# Rational functions and rational matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials in canonical form.

    Construction reduces to lowest terms and normalizes the denominator to
    monic, so equality of canonical forms is exact equality of functions.
    The zero function is stored as ``0/1``.
    """

    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading_coefficient
            if lead != 1:
                num = num * (Fraction(1) / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

    def evaluate(self, x: complex) -> complex:
        """The value at a float or complex point.  Where ``num(x) / den(x)``
        is not finite, ``|x| > 1`` and the function is proper, the value is
        read in ``w = 1/x`` from the reversed coefficients, ``w^(deg den -
        deg num) num~(w) / den~(w)``, which cannot overflow where the
        function is small."""
        value = self.num.evaluate(x) / self.den.evaluate(x)
        gap = len(self.den.coeffs) - len(self.num.coeffs)
        if cmath.isfinite(value) or abs(x) <= 1 or gap < 0:
            return value
        w = 1 / x
        num, den = (Poly(p.coeffs[::-1]) for p in (self.num, self.den))
        return w ** gap * num.evaluate(w) / den.evaluate(w)

    def __str__(self) -> str:
        if self.den == Poly.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


@dataclass(frozen=True)
class RationalMatrix:
    """Matrix of rational functions with a cached common-denominator form.

    ``common_den`` is the monic LCM of the entry denominators and
    ``common_num`` the polynomial matrix with ``H = common_num / common_den``
    entrywise (the division used to build it is exact).
    """

    rows: int
    cols: int
    entries: tuple
    common_den: Poly = field(init=False, compare=False)
    common_num: PolyMatrix = field(init=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch("rational matrix must be at least 1x1")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch("entry count does not match dimensions")
        object.__setattr__(self, "entries", tuple(self.entries))
        den = Poly.one()
        for e in self.entries:
            den = poly_lcm(den, e.den)
        num = PolyMatrix(
            self.rows, self.cols,
            tuple(e.num * den.exact_div(e.den) for e in self.entries))
        object.__setattr__(self, "common_den", den)
        object.__setattr__(self, "common_num", num)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalFunction]]) -> "RationalMatrix":
        flat = tuple(e for row in rows for e in row)
        return cls(len(rows), len(rows[0]), flat)

    def __getitem__(self, key) -> RationalFunction:
        i, j = key
        return self.entries[i * self.cols + j]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    @property
    def strictly_proper(self) -> bool:
        return all(e.strictly_proper for e in self.entries)

    def evaluate(self, x) -> list:
        """Entrywise evaluation at a float or complex point."""
        return [[self[i, j].evaluate(x) for j in range(self.cols)]
                for i in range(self.rows)]


TransferFunction = RationalMatrix


def ratmat_reduce(num: PolyMatrix, den: Poly) -> RationalMatrix:
    """Build the canonical rational matrix ``num / den`` (entrywise).

    Each entry is reduced to lowest terms with a monic denominator; the
    common-denominator cache is recomputed from the reduced entries.
    """
    if den.is_zero:
        raise ZeroDivisionError("rational matrix with zero denominator")
    entries = tuple(RationalFunction(e, den) for e in num.entries)
    return RationalMatrix(num.rows, num.cols, entries)


def ratmat_equal(h1: RationalMatrix, h2: RationalMatrix) -> bool:
    """Exact, deterministic equality of rational matrices (no sampling)."""
    return (h1.rows, h1.cols) == (h2.rows, h2.cols) and h1.entries == h2.entries


def ratmat_markov_series(h: RationalMatrix) -> Iterator[tuple]:
    """The Markov parameters of a strictly proper ``H``, the d x m matrices
    ``h_j`` of ``H(z) = sum_j h_j z^-(j+1)``, ``j = 0, 1, ...``, as
    ``(den, nums)`` like :func:`markov_series`.

    They come from ``H = common_num / common_den`` alone, never from a
    realization.  With the monic ``common_den = z^p + a_1 z^(p-1) + ... +
    a_p`` and ``N_i`` the ``z^i`` coefficient of ``common_num`` (zero for
    ``i < 0``), matching powers of ``z`` in ``common_den * H = common_num``
    gives

        h_j = N_(p-1-j) - sum_(i=1..min(j,p)) a_i h_(j-i).

    The recurrence runs on integers: with ``D`` the lcm of the denominators
    of the ``a_i`` and ``E`` that of the ``N_i``, ``g_j = E D^(j+1) h_j``
    satisfies ``g_j = D^(j+1) E N_(p-1-j) - sum_i (D a_i) D^(i-1) g_(j-i)``.
    Its sum is evaluated by Horner's rule in ``D``, so each product has a
    factor no larger than a scaled coefficient.
    """
    if not h.strictly_proper:
        raise NotStrictlyProper("Markov parameters need a strictly proper matrix")
    p = len(h.common_den.coeffs) - 1
    s_d, (alpha,) = integer_matrix((h.common_den.coeffs[::-1],))
    s_n, nu = integer_matrix(
        [e.coeffs + (Fraction(0),) * (p - len(e.coeffs))
         for e in h.common_num.entries])

    def terms():
        g = []
        power = s_d                             # D^(j+1)
        for j in itertools.count():
            acc = [0] * len(nu)
            for i in range(min(j, p), 0, -1):
                acc = [s_d * x + alpha[i] * y for x, y in zip(acc, g[j - i])]
            top = p - 1 - j
            g.append([(row[top] * power if top >= 0 else 0) - x
                      for row, x in zip(nu, acc)])
            yield s_n * power, g[j]
            power *= s_d

    return terms()
