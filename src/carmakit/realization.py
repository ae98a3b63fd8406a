"""Canonical state space realizations of rational transfer functions.

A linear state space model dX = A X dt + B dL, Y = C X has the strictly
proper transfer function H(z) = C (zI - A)^{-1} B.  This module converts
between four equivalent descriptions of the same input/output behavior:

* the raw matrix triple (A, B, C);
* the observer canonical form: block-companion drift, input matrix built by
  stacking the blocks beta_1..beta_p of a recursion in the autoregressive
  and moving-average coefficients (for the scalar denominator of a transfer
  function, its first p Markov parameters), and C = (I, 0, ..., 0);
* the controller canonical form: the dual block-companion drift with
  B = (0, ..., 0, I)^T and C holding the numerator coefficient blocks;
* left/right matrix fraction descriptions H = P^{-1} Q = Qt Pt^{-1} whose
  denominators have identity leading coefficient and equal degree.

Each canonical form is a :class:`CanonicalRealization`: a state space model
and the left (observer) or right (controller) fraction it is read from.

All arithmetic is exact, so "the transfer functions agree" is decided, not
estimated.  There is one certificate, :func:`tf_match`, which compares the
Markov parameters of a model with those of the transfer function it should
realize, whose common denominator pi has degree p: the first p terms when
pi(A) B = 0, which holds for both canonical forms since their drift is
companion(pi) in block form, and the first N + p otherwise.  Each count is
the order of a linear recurrence that the difference of the two Markov
sequences satisfies, so agreement there is agreement everywhere.
:func:`tf_equivalent` decides two models with it: the smaller model's
transfer function, which is exact, is matched against the larger model,
once the first min(N1, N2) Markov parameters of the two are equal.  Each
decision reads one stream of the larger model's blocks A^k B.

Every model has one integer form, :class:`~carmakit.exactalg.IntegerForm`:
``s*A``, ``s_b*B`` and ``s_c*C``, each scaled by the lcm of its matrix's
denominators, which the Faddeev-LeVerrier and Markov kernels read.  A model
built from rows computes it on first use and keeps it.  The two canonical
forms are assembled with it filled in, by the loop that writes their
``Fraction`` rows: their drift is the scalar companion ``companion(pi) (x)
I``, written straight from the p coefficients of pi, so neither form is
validated entry by entry or scaled to integers again.

The constructions here favor transparency over minimality: the
realized state dimension is p*d (observer) or p*m (controller), which may
exceed the dimension of the model the transfer function came from.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import (
    DimensionMismatch,
    NotStrictlyProper,
    ZeroTransferFunction,
)
from .exactalg import (
    _ONE,
    _ZERO,
    _Frozen,
    _is_integer,
    _set_field,
    IntegerForm,
    Poly,
    PolyMatrix,
    RationalMatrixData,
    TransferFunction,
    annihilates,
    faddeev_leverrier,
    integer_form,
    integer_matrix,
    markov_blocks,
    markov_series,
    markov_series_equal,
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_zeros,
    nonzero_entries,
    rational_matrix,
    ratmat_markov_series,
    ratmat_reduce,
)


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------

class StateSpaceModel(_Frozen):
    """Exact-rational matrix triple (A, B, C) with A: NxN, B: Nxm, C: dxN."""

    _fields = ("a", "b", "c")

    def __init__(self, a: RationalMatrixData, b: RationalMatrixData,
                 c: RationalMatrixData):
        a = rational_matrix(a)
        b = rational_matrix(b)
        c = rational_matrix(c)
        n = len(a)
        if any(len(row) != n for row in a):
            raise DimensionMismatch("state matrix A must be square")
        if len(b) != n:
            raise DimensionMismatch("B must have as many rows as A")
        if any(len(row) != len(c[0]) for row in c) or len(c[0]) != n:
            raise DimensionMismatch("C must have as many columns as A")
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "c", c)

    @cached_property
    def integer_form(self) -> IntegerForm:
        """``(A, B, C)`` scaled to integers, as :func:`faddeev_leverrier` and
        :func:`markov_blocks` read it; computed on first use and kept.  The
        canonical forms are assembled with it already filled in."""
        return integer_form(self.a, self.b, self.c)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b[0])

    @property
    def d(self) -> int:
        return len(self.c)


class McarmaSpec(_Frozen):
    """Autoregressive/moving-average coefficient form of a model.

    Holds P(z) = I_d z^p + A_1 z^(p-1) + ... + A_p through ``a_coeffs``
    (A_1..A_p, each dxd) and Q(z) = B_0 z^q + ... + B_q through ``b_coeffs``
    (B_0..B_q, each dxm).  ``q is None`` encodes an identically zero Q, in
    which case ``b_coeffs`` is empty.  The stacked input blocks beta_1..beta_p
    are derived on construction and cached; they satisfy beta_k = 0 for
    k < p-q and beta_k = -sum_{i=1}^{k-1} A_i beta_{k-i} + B_{q-p+k} for
    k >= p-q.
    """

    _fields = ("p", "q", "d", "m", "a_coeffs", "b_coeffs", "beta")
    # beta is derived from the other fields, so it is shown but not compared
    _compared = _fields[:-1]

    def __init__(self, p: int, q: Optional[int], d: int, m: int,
                 a_coeffs: tuple, b_coeffs: tuple):
        for name, order in zip("pqdm", (p, 0 if q is None else q, d, m)):
            if not _is_integer(order):
                raise ValueError(f"{name} must be an integer, got {order!r}")
        if p < 1:
            raise ValueError("autoregressive order p must be at least 1")
        if d < 1 or m < 1:
            raise DimensionMismatch("output and input dimensions must be positive")
        a_coeffs = tuple(rational_matrix(ai) for ai in a_coeffs)
        if len(a_coeffs) != p:
            raise DimensionMismatch(f"expected {p} autoregressive coefficients")
        for ai in a_coeffs:
            if len(ai) != d or len(ai[0]) != d:
                raise DimensionMismatch("autoregressive coefficients must be dxd")

        if q is None:
            if b_coeffs:
                raise ValueError("zero moving-average part admits no B coefficients")
            b_coeffs = ()
            beta = (mat_zeros(d, m),) * p
        else:
            if not 0 <= q < p:
                raise ValueError("moving-average order must satisfy 0 <= q < p")
            b_coeffs = tuple(rational_matrix(bj) for bj in b_coeffs)
            if len(b_coeffs) != q + 1:
                raise DimensionMismatch(f"expected {q + 1} moving-average coefficients")
            for bj in b_coeffs:
                if len(bj) != d or len(bj[0]) != m:
                    raise DimensionMismatch("moving-average coefficients must be dxm")
            zero = mat_zeros(d, m)
            beta = []
            for k in range(1, p + 1):
                beta.append(zero if k < p - q else mat_sub(
                    b_coeffs[q - p + k], _lag_sum(a_coeffs, beta, k, zero)))
        _set_field(self, "p", p)
        _set_field(self, "q", q)
        _set_field(self, "d", d)
        _set_field(self, "m", m)
        _set_field(self, "a_coeffs", a_coeffs)
        _set_field(self, "b_coeffs", b_coeffs)
        _set_field(self, "beta", tuple(beta))

    @classmethod
    def from_beta(cls, a_coeffs, beta, d: int, m: int) -> "McarmaSpec":
        """The spec with stacked input blocks ``beta``: q = p - min{k : beta_k
        != 0} and B_{q-p+k} = beta_k + sum_{i=1}^{k-1} A_i beta_{k-i}.  A zero
        B_0 in the source spec gives a smaller q with the same blocks, and
        all-zero blocks give the explicit zero-Q spec rather than an error."""
        a_coeffs = tuple(rational_matrix(ai) for ai in a_coeffs)
        beta = tuple(rational_matrix(bk) for bk in beta)
        p = len(a_coeffs)
        if len(beta) != p:
            raise DimensionMismatch(f"expected {p} stacked input blocks")
        if any(len(bk) != d or len(bk[0]) != m for bk in beta):
            raise DimensionMismatch("stacked input blocks must be dxm")
        first = next((k for k, bk in enumerate(beta, 1) if not mat_is_zero(bk)), None)
        if first is None:
            return cls(p=p, q=None, d=d, m=m, a_coeffs=a_coeffs, b_coeffs=())
        zero = mat_zeros(d, m)
        b_coeffs = tuple(mat_add(beta[k - 1], _lag_sum(a_coeffs, beta, k, zero))
                         for k in range(first, p + 1))
        return cls(p=p, q=p - first, d=d, m=m, a_coeffs=a_coeffs, b_coeffs=b_coeffs)

    def fraction(self) -> "MfdPair":
        """The left matrix fraction H = P^{-1} Q this spec encodes, with
        P(z) = I_d z^p + A_1 z^(p-1) + ... + A_p and
        Q(z) = B_0 z^q + ... + B_q (zero if q is None)."""
        return MfdPair("left", _poly_from_blocks((mat_identity(self.d), *self.a_coeffs),
                                                 self.d, self.d),
                       _poly_from_blocks(self.b_coeffs, self.d, self.m))


def _lag_sum(a_coeffs, beta, k: int, zero) -> RationalMatrixData:
    """sum_{i=1}^{k-1} A_i beta_{k-i}: the term linking beta_k to B_{q-p+k}
    (zero, of the blocks' shape, for k = 1)."""
    acc = zero
    for i in range(1, k):
        acc = mat_add(acc, mat_mul(a_coeffs[i - 1], beta[k - i - 1]))
    return acc


def _poly_from_blocks(blocks, rows: int, cols: int) -> PolyMatrix:
    """C_0 z^r + C_1 z^(r-1) + ... + C_r from rows x cols blocks C_0..C_r
    (the zero matrix for no blocks)."""
    return PolyMatrix.from_rows(
        [[Poly([blk[r][c] for blk in reversed(blocks)]) for c in range(cols)]
         for r in range(rows)])


class MfdPair(_Frozen):
    """One side of a matrix fraction description of a transfer function.

    ``side == "left"`` means H = den^{-1} num; ``side == "right"`` means
    H = num den^{-1}.  The denominator is square with identity leading
    coefficient and degree strictly greater than the numerator's, and the
    numerator has its rows (left) or its columns (right).
    """

    _fields = ("side", "den", "num")

    def __init__(self, side: str, den: PolyMatrix, num: PolyMatrix):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if den.rows != den.cols:
            raise DimensionMismatch("denominator of a matrix fraction must be square")
        if (num.rows if side == "left" else num.cols) != den.rows:
            raise DimensionMismatch(
                f"numerator of a {side} fraction does not fit its denominator")
        if den.coefficient_matrix(den.degree) != mat_identity(den.rows):
            raise ValueError("denominator leading coefficient must be the identity")
        if not num.degree < den.degree:
            raise NotStrictlyProper("numerator degree must be below denominator degree")
        _set_field(self, "side", side)
        _set_field(self, "den", den)
        _set_field(self, "num", num)

    @property
    def p(self) -> int:
        """The degree of the denominator."""
        return self.den.degree

    @property
    def q(self) -> Optional[int]:
        """The degree of the numerator, None if it is zero."""
        return self.num.degree if self.num.degree >= 0 else None


class CanonicalRealization(_Frozen):
    """A block-companion realization and the matrix fraction it is read
    from: the observer form of a left fraction, whose drift's last block row
    is (-A_p, ..., -A_1) and whose C = (I_d, 0, ..., 0), or the controller
    form of a right fraction, with B = (0, ..., 0, I_m)^T and C holding the
    numerator blocks N_0..N_(p-1) in ascending degree.
    """

    _fields = ("statespace", "fraction")

    def __init__(self, statespace: StateSpaceModel, fraction: MfdPair):
        _set_field(self, "statespace", statespace)
        _set_field(self, "fraction", fraction)


# ---------------------------------------------------------------------------
# Transfer function and properness
# ---------------------------------------------------------------------------

def transfer_function(ss: StateSpaceModel) -> TransferFunction:
    """H(z) = C (zI - A)^{-1} B, in lowest terms.

    :func:`faddeev_leverrier` gives the numerator ``C adj(zI - A) B``, which
    it projects inside its integer iteration without building the N x N
    adjugate, and ``det(zI - A)``; the quotient is then put in lowest terms.
    The result is exact and always strictly proper: the numerator has degree
    at most N - 1 against the degree-N characteristic polynomial, and
    reduction can only lower numerator degrees.
    """
    return ratmat_reduce(*faddeev_leverrier(ss.integer_form))


# ---------------------------------------------------------------------------
# Assembling block-companion models
# ---------------------------------------------------------------------------

def _block_companion(coeffs, block: int) -> RationalMatrixData:
    """Companion matrix of I z^p + C_1 z^(p-1) + ... + C_p in block form.

    Identity blocks sit on the superdiagonal; the last block row is
    (-C_p, ..., -C_1).
    """
    p = len(coeffs)
    n = p * block
    rows = [[_ZERO] * n for _ in range(n)]
    for i in range(n - block):
        rows[i][i + block] = _ONE
    base = n - block
    for j in range(p):
        blk = coeffs[p - 1 - j]
        for r in range(block):
            for c in range(block):
                rows[base + r][j * block + c] = -blk[r][c]
    return tuple(tuple(row) for row in rows)


def _observer_c(p: int, d: int) -> RationalMatrixData:
    """C = (I_d, 0, ..., 0) of a p-block observer form."""
    return tuple(row + (_ZERO,) * ((p - 1) * d) for row in mat_identity(d))


def assemble_observer_ss(spec: McarmaSpec) -> StateSpaceModel:
    """The p*d-dimensional model realizing a coefficient spec.

    Works for arbitrary matrix autoregressive coefficients, not only scalar
    multiples of the identity, so user-supplied full-matrix specs route
    through the same construction.  The model is validated like any other,
    since its blocks come from a model file.
    """
    return StateSpaceModel(a=_block_companion(spec.a_coeffs, spec.d),
                           b=tuple(row for blk in spec.beta for row in blk),
                           c=_observer_c(spec.p, spec.d))


def _scalar_companion(h: TransferFunction, k: int) -> tuple:
    """The drift ``companion(pi) (x) I_k`` both canonical forms share, for H's
    monic common denominator ``pi = z^p + a_1 z^(p-1) + ... + a_p``, and the
    fraction denominator ``pi I_k`` it comes from.

    Returns ``(p, rows, s, int_rows, den)``: the degree of ``pi``, the
    drift's ``Fraction`` rows, ``s`` the lcm of the denominators of the
    ``a_i``, and the rows of ``s`` times the drift as their nonzero
    ``(column, value)`` pairs, all written in one loop from the ``p``
    coefficients of ``pi``.  ``s`` and the integers ``s a_i`` are
    ``pi.integer_scale``, kept on ``pi`` (its leading 1 leaves ``s``
    unchanged), so the two forms, their certificates and ``h.markov_head``
    scale ``pi`` once between them.  Row ``i < (p-1)k`` is the unit row
    ``e_(i+k)``; row ``(p-1)k + r`` holds ``-a_(p-j)`` in column ``jk + r``.
    """
    if h.is_zero:
        raise ZeroTransferFunction(
            "cannot realize an identically zero transfer function")
    if not h.strictly_proper:
        raise NotStrictlyProper(
            "transfer function must be strictly proper (no feedthrough)")
    pi = h.common_den
    last = [-x for x in pi.coeffs[:-1]]          # -a_p, ..., -a_1
    p = len(last)
    n = p * k
    s, ints = pi.integer_scale
    last_ints = [-x for x in ints[:-1]]
    rows, int_rows = [], []
    for i in range(k, n):
        row = [_ZERO] * n
        row[i] = _ONE
        rows.append(tuple(row))
        int_rows.append(((i, s),))
    for r in range(k):
        row = [_ZERO] * n
        row[r::k] = last
        rows.append(tuple(row))
        int_rows.append(tuple([(j * k + r, v) for j, v in enumerate(last_ints) if v]))
    zero = Poly.zero()
    den = PolyMatrix(k, k, tuple(pi if r == c else zero
                                 for r in range(k) for c in range(k)))
    return p, tuple(rows), s, tuple(int_rows), den


def observer_realization(h: TransferFunction):
    """Observer canonical form plus the left matrix fraction it encodes.

    The scalar denominator d(z) = z^p + a_1 z^(p-1) + ... + a_p induces
    A_i = a_i I_d.  With P = d(z) I_d and Q = N(z) = d(z) H(z), P H = Q
    makes the stacked input blocks beta_1..beta_p exactly H's first p
    Markov parameters h_0..h_(p-1) (Kailath, *Linear Systems*, 6.3), which
    are read from ``h.markov_head``.  Returns the realization together with
    the left fraction (P, Q).
    """
    d, m = h.rows, h.cols
    p, a, s, a_rows, den = _scalar_companion(h, d)
    b = tuple(tuple(Fraction(x, scale) for x in nums[r * m:(r + 1) * m])
              for scale, nums in h.markov_head for r in range(d))
    s_b, b_ints = integer_matrix(b)
    form = IntegerForm(s, a_rows, s_b, b_ints, 1, tuple(((r, 1),) for r in range(d)))
    ss = StateSpaceModel._assembled(a=a, b=b, c=_observer_c(p, d),
                                    integer_form=form)
    mfd = MfdPair._assembled(side="left", den=den, num=h.common_num)
    return CanonicalRealization(ss, mfd), mfd


def controller_realization(h: TransferFunction):
    """Controller canonical form plus the right matrix fraction it encodes.

    Uses the same scalar denominator d(z) as the observer construction (so
    both fraction denominators have degree p), the input matrix
    (0, ..., 0, I_m)^T and the output matrix (N_0, ..., N_(p-1)) built from
    ascending numerator coefficients.
    """
    d, m = h.rows, h.cols
    p, a, s, a_rows, den = _scalar_companion(h, m)
    num = h.common_num
    c = tuple(tuple(num[r, j].coefficient(k) for k in range(p) for j in range(m))
              for r in range(d))
    s_c, c_ints = integer_matrix(c)
    b_ints = (((0,) * m,) * ((p - 1) * m)
              + tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))
    form = IntegerForm(s, a_rows, 1, b_ints, s_c, nonzero_entries(c_ints))
    ss = StateSpaceModel._assembled(
        a=a, b=mat_zeros((p - 1) * m, m) + mat_identity(m), c=c,
        integer_form=form)
    mfd = MfdPair._assembled(side="right", den=den, num=num)
    return CanonicalRealization(ss, mfd), mfd


def tf_match(ss: StateSpaceModel, h: TransferFunction) -> bool:
    """Exact check that ``ss`` realizes ``h``: the certificate behind a
    canonical report's ``tf_match``, and the one place that decides how many
    Markov parameters a match compares.

    The Markov parameters of ``ss`` are compared with ``h``'s, which come
    from ``h``'s own numerator and denominator, so the two sides stay
    independent.  With ``pi = h.common_den`` monic of degree ``p``, ``h``'s
    parameters satisfy the linear recurrence with characteristic polynomial
    ``pi``.  If ``pi(A) B = 0``, which :func:`annihilates` decides on the
    blocks ``X_0, ..., X_p`` of ``ss``, so do those of ``ss`` and the
    differences, and the first ``p`` decide (Kailath, *Linear Systems*,
    6.3); both canonical forms of ``h`` take this path.  Otherwise the first
    ``N + p`` decide, ``N`` the state dimension of ``ss``, since the
    differences satisfy the recurrence of ``det(zI - A) * pi``.  The test
    and the comparison read one :func:`markov_blocks` stream of
    ``ss.integer_form``, so each block is formed once; for a canonical form
    those are the integers its assembly wrote beside the rows a report
    prints.  ``h``'s first ``p`` terms are ``h.markov_head``, computed once
    per ``h``; the observer form stacks them into its ``B``, so for it the
    certificate checks the companion drift, ``C`` and the block order.
    """
    return _tf_match(ss, h, markov_blocks(ss.integer_form))


def _tf_match(ss: StateSpaceModel, h: TransferFunction, blocks) -> bool:
    """:func:`tf_match` on ``ss``'s :func:`markov_blocks` stream ``blocks``."""
    if (ss.d, ss.m) != (h.rows, h.cols) or not h.strictly_proper:
        return False
    den = h.common_den
    p = len(den.coeffs) - 1
    head = list(itertools.islice(blocks, p + 1))
    count = p if annihilates(den, ss.integer_form.s, head) else ss.n + p
    return markov_series_equal(
        markov_series(ss.integer_form, itertools.chain(head, blocks)),
        ratmat_markov_series(h), count)


def tf_equivalent(ss1: StateSpaceModel, ss2: StateSpaceModel) -> bool:
    """Exact transfer-function equality: the certificate that two models
    driven by the same process produce the same output process.

    The smaller model, by state dimension and ``ss1`` on a tie, has ``N``
    states.  The first ``N`` Markov parameters ``C A^k B`` of the two models
    are compared first, stopping at the first that differs: a pair that
    differs there is distinct, decided without a transfer function.  This
    refutes models that differ only in ``A`` (at ``C A B``) or whose first
    terms vanish, as those of a CARMA(p, q) model do below ``p - q - 1``.
    Otherwise :func:`tf_match` decides whether the larger model realizes the
    smaller one's exact transfer function.  The prefix and the certificate
    read one :func:`markov_blocks` stream of the larger model, split by
    ``itertools.tee``, so each of its blocks is formed once, and the stream
    lives only for this call.
    """
    if (ss1.d, ss1.m) != (ss2.d, ss2.m):
        raise DimensionMismatch(
            "models must share input and output dimensions to be compared")
    smaller, larger = (ss1, ss2) if ss1.n <= ss2.n else (ss2, ss1)
    prefix, blocks = itertools.tee(markov_blocks(larger.integer_form))
    if not markov_series_equal(
            markov_series(smaller.integer_form, markov_blocks(smaller.integer_form)),
            markov_series(larger.integer_form, prefix), smaller.n):
        return False
    return _tf_match(larger, transfer_function(smaller), blocks)
