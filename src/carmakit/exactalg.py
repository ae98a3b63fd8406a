"""Exact rational arithmetic: scalars, univariate polynomials, polynomial
matrices and rational-function matrices.

Everything in this module is computed over arbitrary-precision rationals
(``fractions.Fraction``), so equality of polynomials and rational matrices is
a decision procedure rather than a tolerance question.  Conventions:

* polynomial coefficients are stored ascending in degree; the zero polynomial
  is the empty coefficient tuple and has degree ``-inf``;
* rational functions are kept in canonical form: coprime numerator and
  denominator, denominator monic, the zero function is ``0/1``;
* a rational matrix is stored as one fraction ``H = common_num /
  common_den`` in lowest terms: ``common_den`` is monic and shares no
  factor with all the entries of ``common_num``, so it is the monic lcm of
  the reduced entry denominators.  A rational function is its 1 x 1 case.

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
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .errors import DimensionMismatch, NotStrictlyProper, OutOfRange

RationalLike = Union[Fraction, int, str]

NEG_INFINITY = float("-inf")

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# The one zero and one every zero and identity block is built from: sharing
# them saves an allocation per entry, and lets format_rational spell them
# without a call.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``"p"`` or ``"p/q"`` with decimal integers.

    The whole string must be the literal, in ASCII digits with an optional
    sign on ``p``, and the denominator must be a positive integer; ``"1/0"``
    and anything that is not a plain integer fraction (floats, whitespace
    padding or a trailing newline, exponents, other Unicode digits) raise
    ``ValueError``.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"invalid rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`: ``"p"`` for integers, else ``"p/q"``,
    which is ``str(x)``; the shared zero and one are spelled out at once.

    Raises :class:`OutOfRange` if a part has more digits than the
    interpreter's limit for integer string conversion."""
    if x is _ZERO:
        return "0"
    if x is _ONE:
        return "1"
    try:
        return str(x)
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

def _rectangular(rows: tuple) -> tuple:
    """``rows``, a tuple of tuples, once checked to be a nonempty rectangle."""
    if not rows or not rows[0]:
        raise DimensionMismatch("matrix must have at least one row and one column")
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatch("ragged matrix rows")
    return rows


def rational_matrix(rows: Sequence[Sequence[RationalLike]]) -> RationalMatrixData:
    """Convert nested sequences into a rectangular tuple-of-tuples of Fraction."""
    return _rectangular(tuple(tuple(as_rational(x) for x in row) for row in rows))


def mat_identity(n: int) -> RationalMatrixData:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def mat_zeros(rows: int, cols: int) -> RationalMatrixData:
    return tuple((_ZERO,) * cols for _ in range(rows))


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
        tuple(sum((x * y for x, y in zip(row, col) if x), Fraction(0))
              for col in bt) for row in a)


def mat_is_zero(a: RationalMatrixData) -> bool:
    return all(x == 0 for row in a for x in row)


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

# How the value classes below store a field past their frozen __setattr__.
# It keeps the values inline in the instance; writing ``self.__dict__``
# instead would make every later attribute read a dict lookup, about three
# times slower.
_set_field = object.__setattr__


class _Frozen:
    """The shared part of the exact layer's value classes, each immutable
    once constructed.  Each class's ``__init__`` stores its fields with
    ``_set_field`` and ends with its ``__post_init__()`` check, if it has
    one, and its ``__eq__`` and ``__hash__`` read the tuple of its compared
    fields.  Here are the frozen setters and the repr, which spells
    ``_fields`` by name as ``Name(field=value, ...)``.  Views kept by
    ``cached_property`` are written into the instance ``__dict__``."""

    _fields: tuple = ()

    def __setattr__(self, name, value):
        self._refuse("assign to", name)

    def __delattr__(self, name):
        self._refuse("delete", name)

    @staticmethod
    def _refuse(action: str, name: str):
        # loaded on this error path only, as its module imports inspect
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {action} field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly(_Frozen):
    """Univariate polynomial over the rationals.

    ``coeffs[k]`` is the coefficient of ``z**k``.  Trailing zeros are stripped
    on construction, so the representation is canonical: the zero polynomial
    is the empty tuple, and otherwise the leading coefficient is nonzero.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        _set_field(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        cs = [as_rational(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set_field(self, "coeffs", tuple(cs))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

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
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    # -- views, computed on first use and kept: both canonical forms, their
    #    certificates and the reports of one transfer function read the
    #    same polynomials, so they share one copy of each ----------------

    @cached_property
    def literals(self) -> tuple:
        """Each coefficient as :func:`format_rational` spells it, ascending.
        Raises :class:`OutOfRange` when read if a coefficient has too many
        digits to print."""
        return tuple(map(format_rational, self.coeffs))

    @cached_property
    def integer_scale(self) -> tuple:
        """``(s, ints)``: ``s`` the lcm of the coefficient denominators and
        ``ints = s * coeffs`` as a tuple of plain integers, ascending: the
        one-row case of :func:`integer_matrix`."""
        s, (ints,) = integer_matrix((self.coeffs,))
        return s, ints

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
            raise ValueError(f"{self!r} is not divisible by {other!r}")
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


# -- division and gcd over the rationals.  Every polynomial division in
#    this module -- divmod, exact_div, the gcd's remainder sequence, and so
#    the reduction of rational matrices -- runs the one integer routine
#    _int_divrem on primitive coefficient lists, which keeps coefficient
#    growth polynomial and builds no Fraction until the result.  The gcd
#    first decides coprimality modulo one prime (below), and runs the exact
#    remainder sequence only when that test cannot decide. ----------------

def _int_primitive(p: Poly) -> tuple:
    """``(content, ints)``: ``p == content * ints`` with ``ints`` the
    primitive integer coefficient list of ``p`` (empty for zero)."""
    s, ints = p.integer_scale
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


# -- coprimality modulo one prime.  If the prime divides neither leading
#    coefficient of two primitive integer polynomials, their gcd modulo the
#    prime has at least the degree of their gcd over Q (the true gcd keeps
#    its degree there and still divides both), so a constant gcd modulo the
#    prime proves them coprime (Brown 1971; von zur Gathen & Gerhard, *Modern
#    Computer Algebra*, ch. 6).  A nonconstant one decides nothing. --------

_PRIME = (1 << 61) - 1


def _gcd_mod_prime(x: list, y: list) -> Optional[list]:
    """The gcd of the integer lists ``x`` and ``y`` (ascending, nonzero)
    modulo ``_PRIME``, as a list of residues, or ``None`` when ``_PRIME``
    divides a leading coefficient."""
    u, v = ([c % _PRIME for c in w] for w in (x, y))
    if u[-1] == 0 or v[-1] == 0:
        return None
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        inv = pow(v[-1], -1, _PRIME)
        dv = len(v) - 1
        while len(u) > dv:
            f = u[-1] * inv % _PRIME
            shift = len(u) - 1 - dv
            for i, c in enumerate(v):
                u[shift + i] = (u[shift + i] - f * c) % _PRIME
            while u and u[-1] == 0:
                u.pop()
        u, v = v, u
    return v or u


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.  Raises if both inputs are zero."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x, y = _int_primitive(a)[1], _int_primitive(b)[1]
    g = _gcd_mod_prime(x, y)
    if g is not None and len(g) == 1:
        return Poly.one()
    if len(x) < len(y):
        x, y = y, x
    while y:
        r = _int_divrem(x, y)[1]
        g = math.gcd(*r)
        x, y = y, [c // g for c in r]
    return Poly(x).monic()


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------

class PolyMatrix(_Frozen):
    """Rectangular matrix of :class:`Poly`, stored row-major."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        _set_field(self, "rows", rows)
        _set_field(self, "cols", cols)
        _set_field(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch("polynomial matrix must be at least 1x1")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")
        _set_field(self, "entries", tuple(self.entries))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.rows, self.cols, self.entries)
                    == (other.rows, other.cols, other.entries))
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        rows = _rectangular(tuple(map(tuple, rows)))
        return cls(len(rows), len(rows[0]), tuple(itertools.chain(*rows)))

    @classmethod
    def from_scalar_matrix(cls, data: Sequence[Sequence[RationalLike]]) -> "PolyMatrix":
        """Embed a constant rational matrix as degree-0 polynomials."""
        return cls.from_rows([[Poly.constant(x) for x in row] for row in data])

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

    @cached_property
    def degree(self) -> Union[int, float]:
        """The largest entry degree, ``-inf`` for the zero matrix; kept."""
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

    def scale(self, factor: Poly) -> "PolyMatrix":
        """Multiply every entry by the polynomial ``factor``."""
        return PolyMatrix(self.rows, self.cols,
                          tuple(factor * e for e in self.entries))


# ---------------------------------------------------------------------------
# Resolvent numerator and Markov parameters: integer iterations on s*A
# ---------------------------------------------------------------------------

def integer_matrix(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """``(s, ints)`` with ``s`` the least common multiple of the entry
    denominators and ``ints = s * matrix`` as tuples of plain integers."""
    s = math.lcm(*(x.denominator for row in matrix for x in row))
    return s, tuple(tuple([x.numerator * (s // x.denominator) for x in row])
                    for row in matrix)


def nonzero_entries(rows) -> tuple:
    """Each row as the tuple of its ``(column, value)`` pairs with nonzero
    value."""
    return tuple(tuple([(j, x) for j, x in enumerate(row) if x]) for row in rows)


class IntegerForm(NamedTuple):
    """A model ``(A, B, C)`` scaled to integers, the form the integer
    kernels below read: ``s*A``, ``s_b*B`` and ``s_c*C``, each scale the lcm
    of its matrix's entry denominators.  The rows of ``s*A`` and ``s_c*C``
    are kept as their nonzero ``(column, value)`` pairs, since
    block-companion matrices are mostly zero; ``s_b*B`` is kept dense, row by
    row.  Every part is a tuple, so one form can be shared by every caller."""

    s: int
    a_rows: tuple
    s_b: int
    b: tuple
    s_c: int
    c_rows: tuple


def integer_form(a: RationalMatrixData, b: RationalMatrixData,
                 c: RationalMatrixData) -> IntegerForm:
    """The :class:`IntegerForm` of ``(A, B, C)``, for ``A`` N x N, ``B`` N x m
    and ``C`` d x N given as rows of ``Fraction``."""
    s, a_ints = integer_matrix(a)
    s_b, b_ints = integer_matrix(b)
    s_c, c_ints = integer_matrix(c)
    return IntegerForm(s, nonzero_entries(a_ints), s_b, b_ints,
                       s_c, nonzero_entries(c_ints))


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


def faddeev_leverrier(form: IntegerForm) -> tuple:
    """``(num, charpoly)``: the d x m polynomial matrix ``num = C adj(z*I - A)
    B``, not reduced, and the monic degree-N ``charpoly = det(z*I - A)``, for
    ``A`` N x N, ``B`` N x m and ``C`` d x N given by their integer ``form``,
    by the Faddeev-LeVerrier iteration.

    The iterates of the integer matrix ``s*A`` are plain integers: ``M_1 =
    I``, ``c_k = -tr(s*A M_k) / k`` (an exact division) and ``M_(k+1) = s*A
    M_k + c_k I``.  Then ``det(z*I - A) = z^N + sum_k c_k s^-k z^(N-k)`` and
    ``adj(z*I - A) = sum_k M_k s^-(k-1) z^(N-k)`` (Gantmacher, *Theory of
    Matrices* I, 4.5).

    The N x N adjugate is never built.  Each ``M_k`` is multiplied by the
    nonzero entries of ``s_b*B``, in the rows that ``C`` reads only, and
    then by the nonzero entries of ``s_c*C``; that d x m product over ``s_c
    s_b s^(k-1)`` is the numerator's ``z^(N-k)`` coefficient.  The rows of
    ``s*A`` are read as their nonzero entries, since block-companion drifts
    are mostly zero, and the last step forms only the trace of ``s*A M_N``.
    """
    s, rows, s_b, b_ints, s_c, c_rows = form
    n = len(rows)
    b_cols = nonzero_entries(zip(*b_ints))
    d, m = len(c_rows), len(b_cols)
    # only the rows of M_k B that some row of C reads
    used = {t for pairs in c_rows for t, _ in pairs}
    num_coeffs = [[] for _ in range(d * m)]     # descending powers of z
    char_coeffs = [_ONE]                        # likewise: z^N, z^(N-1), ...
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


def markov_blocks(form: IntegerForm) -> Iterator[list]:
    """The integer N x m blocks ``X_k = (s*A)^k (s_b*B)``, ``k = 0, 1, ...``,
    of an integer ``form``, each formed from the one before when asked for,
    on the nonzero entries of the rows of ``s*A``: never an N x N power.  A
    yielded block is not changed, so the readers of one stream share it."""
    rows, x = form.a_rows, form.b
    m = len(x[0])
    while True:
        yield x
        x = [_row_combination(pairs, x, m) for pairs in rows]


def markov_series(form: IntegerForm,
                  blocks: Optional[Iterator[list]] = None) -> Iterator[tuple]:
    """The Markov parameters ``C A^k B``, ``k = 0, 1, ...``, for ``A`` N x N,
    ``B`` N x m and ``C`` d x N given by their integer ``form``, as ``(den,
    nums)``: the d*m integer numerators, row by row, over one positive
    denominator, ``C A^k B = (s_c*C) X_k / (s_c s_b s^k)``.  It reads one
    block of ``blocks``, the form's :func:`markov_blocks` (a stream of its
    own if none is given), each time a term is asked for, and never ends.
    """
    s, _, s_b, x, s_c, c_rows = form
    m = len(x[0])
    den = s_c * s_b
    for x in markov_blocks(form) if blocks is None else blocks:
        yield den, [y for pairs in c_rows for y in _row_combination(pairs, x, m)]
        den *= s


def annihilates(pi: Poly, s: int, blocks: Sequence[list]) -> bool:
    """Whether ``pi(A) B = 0``, for ``pi = sum_i pi_i z^i`` of degree ``p``,
    decided exactly on the blocks ``X_0, ..., X_p`` of :func:`markov_blocks`
    of a form whose drift is scaled by ``s``: ``D s^p s_b pi(A) B =
    sum_(i<=p) (D pi_i) s^(p-i) X_i``, summed by Horner's rule in ``s``,
    with the integers ``D pi_i`` read from the kept ``pi.integer_scale``."""
    acc = [[0] * len(row) for row in blocks[0]]
    for c, x in zip(pi.integer_scale[1], blocks):
        acc = [[s * u + c * v for u, v in zip(acc_row, x_row)]
               for acc_row, x_row in zip(acc, x)]
    return not any(map(any, acc))


def markov_series_equal(first: Iterator[tuple], second: Iterator[tuple],
                        count: int) -> bool:
    """Whether two ``(den, nums)`` series, as :func:`markov_series` and
    :func:`ratmat_markov_series` yield them, agree in their first ``count``
    terms, compared in order by cross-multiplying the integers.  It stops at
    the first term that differs and draws no term past ``count``."""
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
    return faddeev_leverrier(integer_form(a, eye, eye))


# ---------------------------------------------------------------------------
# Rational functions and rational matrices
# ---------------------------------------------------------------------------

def _lowest_terms(nums: tuple, den: Poly) -> tuple:
    """The fraction ``nums / den`` (entrywise) in lowest terms: ``den / g``
    made monic, ``g = gcd(den, nums...)``, with ``nums`` scaled to match.
    The chain stops once ``g`` is 1, which the gcd's modular test decides at
    the first nonzero entry of a generic input; no nonzero entry gives 0/1."""
    if den.is_zero:
        raise ZeroDivisionError("fraction with zero denominator")
    g = den
    for e in nums:
        if not e.is_zero:
            g = poly_gcd(g, e)
            if g.degree == 0:
                break
    if g.degree > 0:
        nums, den = tuple(e.exact_div(g) for e in nums), den.exact_div(g)
    lead = den.leading_coefficient
    if lead != 1:
        nums, den = tuple(e * (1 / lead) for e in nums), den.monic()
    return nums, den


class RationalFunction(_Frozen):
    """Quotient of two polynomials in canonical form.

    Construction reduces to lowest terms and normalizes the denominator to
    monic, so equality of canonical forms is exact equality of functions.
    The zero function is stored as ``0/1``.
    """

    _fields = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        _set_field(self, "num", num)
        _set_field(self, "den", den)
        self.__post_init__()

    def __post_init__(self):
        (num,), den = _lowest_terms((self.num,), self.den)
        _set_field(self, "num", num)
        _set_field(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.num, self.den) == (other.num, other.den)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

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


class RationalMatrix(_Frozen):
    """Matrix of rational functions ``H = common_num / common_den``, stored
    as that one fraction, which construction puts in lowest terms like a
    :class:`RationalFunction`, so ``==`` is exact equality.  The entries are
    read off it on demand."""

    _fields = ("common_num", "common_den")

    def __init__(self, common_num: PolyMatrix, common_den: Poly):
        _set_field(self, "common_num", common_num)
        _set_field(self, "common_den", common_den)
        self.__post_init__()

    def __post_init__(self):
        nums, den = _lowest_terms(self.common_num.entries, self.common_den)
        _set_field(self, "common_num", PolyMatrix(self.rows, self.cols, nums))
        _set_field(self, "common_den", den)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.common_num, self.common_den)
                    == (other.common_num, other.common_den))
        return NotImplemented

    def __hash__(self):
        return hash((self.common_num, self.common_den))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalFunction]]) -> "RationalMatrix":
        """The entries' numerators over the product of their distinct
        denominators, reduced."""
        den = math.prod(dict.fromkeys(e.den for row in rows for e in row),
                        start=Poly.one())
        return cls(PolyMatrix.from_rows(
            [[e.num * den.exact_div(e.den) for e in row] for row in rows]), den)

    rows = property(lambda self: self.common_num.rows)
    cols = property(lambda self: self.common_num.cols)

    @cached_property
    def entries(self) -> tuple:
        """Each ``common_num[i, j] / common_den``, row by row; kept."""
        return tuple(RationalFunction(e, self.common_den)
                     for e in self.common_num.entries)

    def __getitem__(self, key) -> RationalFunction:
        i, j = key
        return self.entries[i * self.cols + j]

    @cached_property
    def markov_head(self) -> tuple:
        """The first ``p = deg common_den`` terms of
        :func:`ratmat_markov_series`, as ``(den, nums)`` pairs of a positive
        integer and a tuple of integer numerators, row by row.  Computed on
        first use and kept: a strictly proper ``H``'s later terms follow
        from these by the recurrence with characteristic polynomial
        ``common_den``."""
        if not self.strictly_proper:
            raise NotStrictlyProper("Markov parameters need a strictly proper matrix")
        return tuple((den, tuple(nums)) for den, nums in itertools.islice(
            _markov_terms(self, ()), len(self.common_den.coeffs) - 1))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.common_num.entries)

    @property
    def strictly_proper(self) -> bool:
        return self.common_num.degree < self.common_den.degree

    def evaluate(self, x) -> list:
        """Entrywise evaluation at a float or complex point."""
        return [[self[i, j].evaluate(x) for j in range(self.cols)]
                for i in range(self.rows)]


TransferFunction = RationalMatrix


def ratmat_reduce(num: PolyMatrix, den: Poly) -> RationalMatrix:
    """``RationalMatrix(num, den)``: ``num / den`` with ``den`` divided by
    ``gcd(den, n_11, ..., n_dm)`` and made monic; no entry is reduced alone."""
    return RationalMatrix(num, den)


def ratmat_equal(h1: RationalMatrix, h2: RationalMatrix) -> bool:
    """Exact, deterministic equality of rational matrices (no sampling):
    equality of their lowest-terms fractions."""
    return h1 == h2


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

    The first ``p`` terms are ``h.markov_head``, computed once per ``H``;
    the recurrence continues from them.
    """
    head = h.markov_head
    return itertools.chain(head, _markov_terms(h, head))


def _markov_terms(h: RationalMatrix, head: tuple) -> Iterator[tuple]:
    """The terms of ``h``'s Markov series after its first ``len(head)``,
    which are ``head``.

    The recurrence of :func:`ratmat_markov_series` runs on integers: with
    ``D`` the lcm of the denominators of the ``a_i`` and ``E`` that of the
    ``N_i``, ``g_j = E D^(j+1) h_j`` satisfies ``g_j = D^(j+1) E N_(p-1-j) -
    sum_i (D a_i) D^(i-1) g_(j-i)``.  Its sum is evaluated by Horner's rule
    in ``D``, so each product has a factor no larger than a scaled
    coefficient.  The integers ``D a_i`` are ``common_den.integer_scale``,
    which both canonical forms of ``h`` and their certificates read too, and
    ``E N_i`` is read from the ``integer_scale`` kept on each entry of
    ``common_num``.
    """
    p = len(h.common_den.coeffs) - 1
    s_d, den_ints = h.common_den.integer_scale
    alpha = den_ints[::-1]
    scales = [e.integer_scale for e in h.common_num.entries]
    s_n = math.lcm(*(t for t, _ in scales))
    nu = [[x * (s_n // t) for x in ints] for t, ints in scales]
    g = [nums for _, nums in head]
    power = s_d ** (len(g) + 1)                 # D^(j+1)
    for j in itertools.count(len(g)):
        acc = [0] * len(nu)
        for i in range(min(j, p), 0, -1):
            acc = [s_d * x + alpha[i] * y for x, y in zip(acc, g[j - i])]
        top = p - 1 - j
        g.append([(row[top] * power if 0 <= top < len(row) else 0) - x
                  for row, x in zip(nu, acc)])
        yield s_n * power, g[j]
        power *= s_d
