"""Canonical state space realizations of rational transfer functions.

A linear state space model dX = A X dt + B dL, Y = C X has the strictly
proper transfer function H(z) = C (zI - A)^{-1} B.  This module converts
between four equivalent descriptions of the same input/output behavior:

* the raw matrix triple (A, B, C);
* the observer canonical form: block-companion drift, input matrix built by
  stacking the blocks beta_1..beta_p of a recursion in the autoregressive
  and moving-average coefficients, and C = (I, 0, ..., 0);
* the controller canonical form: the dual block-companion drift with
  B = (0, ..., 0, I)^T and C holding the numerator coefficient blocks;
* left/right matrix fraction descriptions H = P^{-1} Q = Qt Pt^{-1} whose
  denominators have identity leading coefficient and equal degree.

All arithmetic is exact, so "the transfer functions agree" is decided, not
estimated.  The decision reads Markov parameters, not reduced transfer
functions: :func:`tf_equivalent` compares the first N1 + N2 of two models.
:func:`tf_match` compares a model with the transfer function it should
realize, whose common denominator pi has degree p: the first p terms when
pi(A) B = 0, which holds for both canonical forms since their drift is
companion(pi) in block form, and the first N + p otherwise.  Each count is
the order of a linear recurrence that the difference of the two Markov
sequences satisfies, so agreement there is agreement everywhere.

The constructions here favor transparency over minimality: the
realized state dimension is p*d (observer) or p*m (controller), which may
exceed the dimension of the model the transfer function came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DegenerateTransferFunction,
    DimensionMismatch,
    NotStrictlyProper,
    ZeroTransferFunction,
)
from .exactalg import (
    Poly,
    PolyMatrix,
    RationalMatrixData,
    TransferFunction,
    faddeev_leverrier,
    markov_series,
    markov_series_equal,
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_zeros,
    rational_matrix,
    ratmat_markov_series,
    ratmat_reduce,
)


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpaceModel:
    """Exact-rational matrix triple (A, B, C) with A: NxN, B: Nxm, C: dxN."""

    a: RationalMatrixData
    b: RationalMatrixData
    c: RationalMatrixData

    def __post_init__(self):
        a = rational_matrix(self.a)
        b = rational_matrix(self.b)
        c = rational_matrix(self.c)
        n = len(a)
        if any(len(row) != n for row in a):
            raise DimensionMismatch("state matrix A must be square")
        if len(b) != n:
            raise DimensionMismatch("B must have as many rows as A")
        if any(len(row) != len(c[0]) for row in c) or len(c[0]) != n:
            raise DimensionMismatch("C must have as many columns as A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b[0])

    @property
    def d(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class McarmaSpec:
    """Autoregressive/moving-average coefficient form of a model.

    Holds P(z) = I_d z^p + A_1 z^(p-1) + ... + A_p through ``a_coeffs``
    (A_1..A_p, each dxd) and Q(z) = B_0 z^q + ... + B_q through ``b_coeffs``
    (B_0..B_q, each dxm).  ``q is None`` encodes an identically zero Q, in
    which case ``b_coeffs`` is empty.  The stacked input blocks beta_1..beta_p
    are derived on construction and cached; they satisfy beta_k = 0 for
    k < p-q and beta_k = -sum_{i=1}^{k-1} A_i beta_{k-i} + B_{q-p+k} for
    k >= p-q.
    """

    p: int
    q: Optional[int]
    d: int
    m: int
    a_coeffs: tuple
    b_coeffs: tuple
    beta: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("autoregressive order p must be at least 1")
        if self.d < 1 or self.m < 1:
            raise DimensionMismatch("output and input dimensions must be positive")
        a_coeffs = tuple(rational_matrix(ai) for ai in self.a_coeffs)
        if len(a_coeffs) != self.p:
            raise DimensionMismatch(f"expected {self.p} autoregressive coefficients")
        for ai in a_coeffs:
            if len(ai) != self.d or len(ai[0]) != self.d:
                raise DimensionMismatch("autoregressive coefficients must be dxd")
        object.__setattr__(self, "a_coeffs", a_coeffs)

        if self.q is None:
            if self.b_coeffs:
                raise ValueError("zero moving-average part admits no B coefficients")
            object.__setattr__(self, "b_coeffs", ())
            object.__setattr__(
                self, "beta", tuple(mat_zeros(self.d, self.m) for _ in range(self.p)))
            return

        if not 0 <= self.q < self.p:
            raise ValueError("moving-average order must satisfy 0 <= q < p")
        b_coeffs = tuple(rational_matrix(bj) for bj in self.b_coeffs)
        if len(b_coeffs) != self.q + 1:
            raise DimensionMismatch(f"expected {self.q + 1} moving-average coefficients")
        for bj in b_coeffs:
            if len(bj) != self.d or len(bj[0]) != self.m:
                raise DimensionMismatch("moving-average coefficients must be dxm")
        object.__setattr__(self, "b_coeffs", b_coeffs)
        object.__setattr__(
            self, "beta", beta_from_mcarma(a_coeffs, b_coeffs, self.p, self.q))

    @classmethod
    def from_beta(cls, a_coeffs, beta, d: int, m: int) -> "McarmaSpec":
        """Rebuild the (q, B_0..B_q) description from stacked input blocks.

        An all-zero block list yields the explicit zero-Q spec rather than an
        error, so callers can round-trip degenerate models they built on
        purpose.
        """
        a_coeffs = tuple(rational_matrix(ai) for ai in a_coeffs)
        beta = tuple(rational_matrix(bk) for bk in beta)
        p = len(a_coeffs)
        if all(mat_is_zero(bk) for bk in beta):
            return cls(p=p, q=None, d=d, m=m, a_coeffs=a_coeffs, b_coeffs=())
        q, b_coeffs = q_and_Q_from_beta(a_coeffs, beta, p)
        return cls(p=p, q=q, d=d, m=m, a_coeffs=a_coeffs, b_coeffs=b_coeffs)

    def ar_poly(self) -> PolyMatrix:
        """P(z) = I_d z^p + A_1 z^(p-1) + ... + A_p as a polynomial matrix."""
        out = []
        for r in range(self.d):
            row = []
            for c in range(self.d):
                coeffs = [self.a_coeffs[self.p - 1 - k][r][c] for k in range(self.p)]
                coeffs.append(Fraction(1) if r == c else Fraction(0))
                row.append(Poly(coeffs))
            out.append(row)
        return PolyMatrix.from_rows(out)

    def ma_poly(self) -> PolyMatrix:
        """Q(z) = B_0 z^q + ... + B_q as a polynomial matrix (zero if q is None)."""
        if self.q is None:
            return PolyMatrix.zero(self.d, self.m)
        out = []
        for r in range(self.d):
            row = []
            for c in range(self.m):
                coeffs = [self.b_coeffs[self.q - k][r][c] for k in range(self.q + 1)]
                row.append(Poly(coeffs))
            out.append(row)
        return PolyMatrix.from_rows(out)


@dataclass(frozen=True)
class ObserverRealization:
    """Block-companion realization with C = (I_d, 0, ..., 0).

    The drift has identity blocks on the superdiagonal and last block row
    (-A_p, ..., -A_1); the input matrix stacks beta_1..beta_p.
    """

    statespace: StateSpaceModel
    mcarma: McarmaSpec


@dataclass(frozen=True)
class ControllerRealization:
    """Dual block-companion realization with B = (0, ..., 0, I_m)^T.

    ``n_coeffs`` stores the numerator coefficient blocks N_0..N_(p-1) in
    ascending degree; the output matrix is their concatenation.  The
    descending-degree naming Bt_j = N_(qt - j) is exposed separately for
    reporting.
    """

    statespace: StateSpaceModel
    atilde_coeffs: tuple
    n_coeffs: tuple
    q_tilde: int

    @property
    def btilde_coeffs(self) -> tuple:
        """Numerator blocks in descending degree: Bt_0 (degree qt) .. Bt_qt."""
        return tuple(self.n_coeffs[self.q_tilde - j] for j in range(self.q_tilde + 1))


@dataclass(frozen=True)
class MfdPair:
    """One side of a matrix fraction description of a transfer function.

    ``side == "left"`` means H = den^{-1} num; ``side == "right"`` means
    H = num den^{-1}.  The denominator is square with identity leading
    coefficient and degree strictly greater than the numerator's.
    """

    side: str
    den: PolyMatrix
    num: PolyMatrix
    p: int
    q: int

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if self.den.rows != self.den.cols:
            raise DimensionMismatch("denominator of a matrix fraction must be square")
        if self.den.degree != self.p:
            raise ValueError("denominator degree does not match recorded p")
        if self.den.coefficient_matrix(self.p) != mat_identity(self.den.rows):
            raise ValueError("denominator leading coefficient must be the identity")
        if not self.num.degree < self.den.degree:
            raise NotStrictlyProper("numerator degree must be below denominator degree")


# ---------------------------------------------------------------------------
# Transfer function and properness
# ---------------------------------------------------------------------------

def transfer_function(ss: StateSpaceModel) -> TransferFunction:
    """H(z) = C (zI - A)^{-1} B, entrywise reduced.

    :func:`faddeev_leverrier` gives the numerator ``C adj(zI - A) B``, which
    it projects inside its integer iteration without building the N x N
    adjugate, and ``det(zI - A)``; the quotient is then reduced entrywise.
    The result is exact and always strictly proper: the numerator has degree
    at most N - 1 against the degree-N characteristic polynomial, and
    reduction can only lower numerator degrees.
    """
    return ratmat_reduce(*faddeev_leverrier(ss.a, ss.b, ss.c))


def strictly_proper(h: TransferFunction) -> bool:
    """True iff every entry's numerator degree is below its denominator degree."""
    return h.strictly_proper


# ---------------------------------------------------------------------------
# The coefficient recursion and its inverse
# ---------------------------------------------------------------------------

def beta_from_mcarma(a_coeffs, b_coeffs, p: int, q: int) -> tuple:
    """Stacked input blocks beta_1..beta_p from (A_1..A_p, B_0..B_q).

    beta_k vanishes for k < p - q; from k = p - q upward,

        beta_k = -sum_{i=1}^{k-1} A_i beta_{k-i} + B_{q-p+k},

    evaluated in increasing k so every term on the right is already known.
    Empty sums are zero.
    """
    if not 0 <= q < p:
        raise ValueError("orders must satisfy 0 <= q < p")
    a_coeffs = tuple(rational_matrix(ai) for ai in a_coeffs)
    b_coeffs = tuple(rational_matrix(bj) for bj in b_coeffs)
    if len(a_coeffs) != p or len(b_coeffs) != q + 1:
        raise DimensionMismatch("coefficient list lengths do not match orders")
    d = len(b_coeffs[0])
    m = len(b_coeffs[0][0])
    beta = []
    for k in range(1, p + 1):
        if k < p - q:
            beta.append(mat_zeros(d, m))
            continue
        acc = b_coeffs[q - p + k]
        for i in range(1, k):
            acc = mat_sub(acc, mat_mul(a_coeffs[i - 1], beta[k - i - 1]))
        beta.append(acc)
    return tuple(beta)


def q_and_Q_from_beta(a_coeffs, beta, p: int) -> tuple:
    """Inverse of :func:`beta_from_mcarma`: recover (q, B_0..B_q).

    q = p - min{ i : beta_i != 0 }, and for j = 0..q

        B_{q-j} = beta_{p-j} + sum_{i=1}^{p-j-1} A_i beta_{p-j-i}.

    If the leading supplied B_0 was zero, the recovered order is the smaller
    effective one; the recovered coefficients still reproduce the same beta.
    """
    a_coeffs = tuple(rational_matrix(ai) for ai in a_coeffs)
    beta = tuple(rational_matrix(bk) for bk in beta)
    if len(a_coeffs) != p or len(beta) != p:
        raise DimensionMismatch("coefficient list lengths do not match order p")
    first_nonzero = next((i for i in range(1, p + 1) if not mat_is_zero(beta[i - 1])),
                         None)
    if first_nonzero is None:
        raise DegenerateTransferFunction(
            "all stacked input blocks vanish: no moving-average order exists")
    q = p - first_nonzero
    b_coeffs = []
    for j in range(q + 1):
        acc = beta[p - j - 1]
        for i in range(1, p - j):
            acc = mat_add(acc, mat_mul(a_coeffs[i - 1], beta[p - j - i - 1]))
        b_coeffs.append(acc)
    # the loop over j emits B_q first and B_0 last
    b_coeffs.reverse()
    return q, tuple(b_coeffs)


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
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - block):
        rows[i][i + block] = Fraction(1)
    base = n - block
    for j in range(p):
        blk = coeffs[p - 1 - j]
        for r in range(block):
            for c in range(block):
                rows[base + r][j * block + c] = -blk[r][c]
    return tuple(tuple(row) for row in rows)


def assemble_observer_ss(spec: McarmaSpec) -> StateSpaceModel:
    """The p*d-dimensional model realizing a coefficient spec.

    Works for arbitrary matrix autoregressive coefficients, not only scalar
    multiples of the identity, so user-supplied full-matrix specs route
    through the same construction.
    """
    p, d, m = spec.p, spec.d, spec.m
    a = _block_companion(spec.a_coeffs, d)
    b = tuple(row for blk in spec.beta for row in blk)
    c = tuple(row + (Fraction(0),) * ((p - 1) * d) for row in mat_identity(d))
    return StateSpaceModel(a=a, b=b, c=c)


def _denominator_data(h: TransferFunction):
    """Shared preamble of both canonical constructions.

    Returns (d(z), p, N(z)) where d(z) is the monic common denominator,
    p its degree, and N(z) = d(z) H(z) the exact polynomial numerator matrix.
    """
    if h.is_zero:
        raise ZeroTransferFunction(
            "cannot realize an identically zero transfer function")
    if not h.strictly_proper:
        raise NotStrictlyProper(
            "transfer function must be strictly proper (no feedthrough)")
    den = h.common_den
    return den, len(den.coeffs) - 1, h.common_num


def _scalar_blocks(den: Poly, p: int, k: int) -> tuple:
    """The k x k blocks a_1 I_k, ..., a_p I_k of the monic
    d(z) = z^p + a_1 z^(p-1) + ... + a_p."""
    return tuple(
        tuple(tuple(den.coefficient(p - i) if r == c else Fraction(0)
                    for c in range(k)) for r in range(k))
        for i in range(1, p + 1))


def observer_realization(h: TransferFunction):
    """Observer canonical form plus the left matrix fraction it encodes.

    The scalar denominator d(z) = z^p + a_1 z^(p-1) + ... + a_p induces
    A_i = a_i I_d; the numerator matrix N(z) = d(z) H(z) supplies B_0..B_q
    with B_j the coefficient of z^(q-j), q = deg N.  Returns the realization
    together with the left fraction (P, Q) = (d(z) I_d, N(z)).
    """
    den, p, num = _denominator_data(h)
    d, m = h.rows, h.cols
    a_coeffs = _scalar_blocks(den, p, d)
    q = num.degree
    b_coeffs = tuple(num.coefficient_matrix(q - j) for j in range(q + 1))
    spec = McarmaSpec(p=p, q=q, d=d, m=m, a_coeffs=a_coeffs, b_coeffs=b_coeffs)
    mfd = MfdPair(side="left", den=PolyMatrix.identity(d).scale(den), num=num,
                  p=p, q=q)
    return ObserverRealization(statespace=assemble_observer_ss(spec),
                               mcarma=spec), mfd


def controller_realization(h: TransferFunction):
    """Controller canonical form plus the right matrix fraction it encodes.

    Uses the same scalar denominator d(z) as the observer construction (so
    both fraction denominators have degree p), the input matrix
    (0, ..., 0, I_m)^T and the output matrix (N_0, ..., N_(p-1)) built from
    ascending numerator coefficients.
    """
    den, p, num = _denominator_data(h)
    d, m = h.rows, h.cols
    atilde = _scalar_blocks(den, p, m)
    a = _block_companion(atilde, m)
    b = mat_zeros((p - 1) * m, m) + mat_identity(m)
    n_coeffs = tuple(num.coefficient_matrix(k) for k in range(p))
    c = tuple(sum((blk[r] for blk in n_coeffs), ()) for r in range(d))
    q_tilde = num.degree
    ss = StateSpaceModel(a=a, b=b, c=c)
    mfd = MfdPair(side="right", den=PolyMatrix.identity(m).scale(den), num=num,
                  p=p, q=q_tilde)
    return ControllerRealization(statespace=ss, atilde_coeffs=atilde,
                                 n_coeffs=n_coeffs, q_tilde=q_tilde), mfd


def left_mfd(h: TransferFunction) -> MfdPair:
    """H = P^{-1} Q with P = d(z) I, identity leading coefficient."""
    return observer_realization(h)[1]


def right_mfd(h: TransferFunction) -> MfdPair:
    """H = Q P^{-1} with P = d(z) I, identity leading coefficient."""
    return controller_realization(h)[1]


def tf_match(ss: StateSpaceModel, h: TransferFunction) -> bool:
    """Exact check that ``ss`` realizes ``h``: the certificate behind a
    canonical report's ``tf_match``.

    The Markov parameters of ``ss`` are compared with those of ``h``, which
    come from ``h``'s own numerator and denominator, so the two sides stay
    independent.  With ``pi = h.common_den`` monic of degree ``p``,
    ``pi * h`` is a polynomial, so ``h``'s parameters satisfy the linear
    recurrence with characteristic polynomial ``pi`` from the first term
    on.  :func:`markov_series` decides on the same integer iterates whether
    ``pi(A) B = 0``; if so, the parameters of ``ss`` satisfy that recurrence
    too, so do the differences, and the first ``p`` of them decide
    (Kailath, *Linear Systems*, 6.3).  The observer and controller forms of
    ``h`` are ``companion(pi)`` in block form, so they always take this
    path.  Otherwise the first ``N + p`` are compared, ``N`` the state
    dimension of ``ss``: the differences then satisfy the recurrence whose
    characteristic polynomial is ``det(zI - A) * pi``, of degree ``N + p``.
    Either way, if the compared terms agree, all of them do.
    """
    if (ss.d, ss.m) != (h.rows, h.cols) or not h.strictly_proper:
        return False
    den = h.common_den
    count = ss.n + len(den.coeffs) - 1
    return markov_series_equal(markov_series(ss.a, ss.b, ss.c, den),
                               ratmat_markov_series(h), count)


def tf_equivalent(ss1: StateSpaceModel, ss2: StateSpaceModel) -> bool:
    """Exact transfer-function equality: the certificate that two models
    driven by the same process produce the same output process.

    Decided by the first ``N1 + N2`` Markov parameters ``C A^k B`` of the
    two models, with ``N1`` and ``N2`` their state dimensions (Kailath,
    *Linear Systems*, 6.3; Ho and Kalman 1966).  The difference of the two
    transfer functions is realized by the block-diagonal model of dimension
    ``N1 + N2``, so by Cayley-Hamilton its Markov parameters satisfy a linear
    recurrence of order ``N1 + N2``; if the first ``N1 + N2`` of them vanish,
    every one does, and the difference, a strictly proper function with
    vanishing expansion at infinity, is zero.
    """
    if (ss1.d, ss1.m) != (ss2.d, ss2.m):
        raise DimensionMismatch(
            "models must share input and output dimensions to be compared")
    count = ss1.n + ss2.n
    return markov_series_equal(markov_series(ss1.a, ss1.b, ss1.c),
                               markov_series(ss2.a, ss2.b, ss2.c), count)
