"""Tests for canonical realizations, the coefficient recursion, and matrix
fraction descriptions.

The oracles are independent of the implementation: beta closed forms are
written out by hand for orders up to 3, and matrix-fraction identities are
checked against a cofactor-expansion polynomial-matrix inverse.
"""

import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from carmakit import cli, exactalg, realization
from carmakit.errors import (
    DimensionMismatch,
    NotStrictlyProper,
    ZeroTransferFunction,
)
from carmakit.exactalg import (
    Poly,
    PolyMatrix,
    RationalFunction,
    RationalMatrix,
    faddeev_leverrier,
    format_rational,
    integer_form,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_zeros,
    ratmat_equal,
    ratmat_reduce,
)
from carmakit.realization import (
    CanonicalRealization,
    McarmaSpec,
    MfdPair,
    StateSpaceModel,
    assemble_observer_ss,
    controller_realization,
    observer_realization,
    tf_equivalent,
    tf_match,
    transfer_function,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def unrolled_beta(a, b, p, q):
    """Hand-expanded closed forms of the input-block recursion, p <= 3.

    Derived independently by substituting the recursion into itself, so a
    sign or index slip in the implementation cannot hide here.
    """
    d, m = len(b[0]), len(b[0][0])
    zero = mat_zeros(d, m)
    if p == 1:
        return (b[0],)
    if p == 2:
        if q == 0:
            return (zero, b[0])
        return (b[0], mat_sub(b[1], mat_mul(a[0], b[0])))
    if p == 3:
        if q == 0:
            return (zero, zero, b[0])
        if q == 1:
            return (zero, b[0], mat_sub(b[1], mat_mul(a[0], b[0])))
        second = mat_sub(b[1], mat_mul(a[0], b[0]))
        third = mat_sub(mat_sub(b[2], mat_mul(a[0], second)), mat_mul(a[1], b[0]))
        return (b[0], second, third)
    raise NotImplementedError


def laplace_det(pm: PolyMatrix) -> Poly:
    rows = [list(pm.row(i)) for i in range(pm.rows)]

    def det(r):
        if len(r) == 1:
            return r[0][0]
        acc = Poly.zero()
        for j in range(len(r)):
            if r[0][j].is_zero:
                continue
            minor = [row[:j] + row[j + 1:] for row in r[1:]]
            term = r[0][j] * det(minor)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    return det(rows)


def laplace_adjugate(pm: PolyMatrix) -> PolyMatrix:
    """Adjugate by cofactors: adj[i][j] = (-1)^(i+j) det(pm without row j, col i)."""
    n = pm.rows
    if n == 1:
        return PolyMatrix.from_rows([[Poly.one()]])
    rows = [list(pm.row(i)) for i in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            c = laplace_det(PolyMatrix.from_rows(minor))
            row.append(c if (i + j) % 2 == 0 else -c)
        out.append(row)
    return PolyMatrix.from_rows(out)


def laplace_inverse_times(pm: PolyMatrix, rhs: PolyMatrix):
    """pm^{-1} rhs as a rational matrix, via cofactor adjugate / determinant."""
    return ratmat_reduce(laplace_adjugate(pm) @ rhs, laplace_det(pm))


def bareiss_poly_det(rows) -> Poly:
    """Fraction-free Bareiss determinant of zI - A given as rows of Poly.

    No pivoting is needed: the k-th pivot is the leading principal minor
    det(zI_k - A_k), a monic polynomial of degree k, so it is never zero.
    """
    m = [list(r) for r in rows]
    n = len(m)
    prev = Poly.one()
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
        prev = m[k][k]
    return m[-1][-1]


def cofactor_resolvent(ss: StateSpaceModel):
    """(C adj(zI - A) B, det(zI - A)), unreduced, from the cofactor adjugate
    and the Bareiss determinant, independent of the Faddeev iteration."""
    n = ss.n
    rows = [[Poly((-ss.a[i][j],)) + (Poly.variable() if i == j else Poly.zero())
             for j in range(n)] for i in range(n)]
    num = (PolyMatrix.from_scalar_matrix(ss.c)
           @ laplace_adjugate(PolyMatrix.from_rows(rows))
           @ PolyMatrix.from_scalar_matrix(ss.b))
    return num, bareiss_poly_det(rows)


def rand_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_mat(rng, r, c):
    return tuple(tuple(rand_frac(rng) for _ in range(c)) for _ in range(r))


def random_model(rng, nmax=4, iomax=3) -> StateSpaceModel:
    n = rng.randint(1, nmax)
    m = rng.randint(1, iomax)
    d = rng.randint(1, iomax)
    return StateSpaceModel(a=rand_mat(rng, n, n), b=rand_mat(rng, n, m),
                           c=rand_mat(rng, d, n))


def random_model_nonzero_tf(rng, nmax=4, iomax=3):
    while True:
        ss = random_model(rng, nmax, iomax)
        h = transfer_function(ss)
        if not h.is_zero:
            return ss, h


def rf(num, den) -> RationalFunction:
    return RationalFunction(Poly(num), Poly(den))


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

class TestTransferFunction:
    def test_scalar_resolvent(self):
        ss = StateSpaceModel(a=[[-3]], b=[[1]], c=[[5]])
        h = transfer_function(ss)
        assert h[0, 0] == rf((5,), (3, 1))

    def test_decoupled_diagonal(self):
        ss = StateSpaceModel(a=[[-1, 0], [0, -2]],
                             b=[[1, 0], [0, 1]],
                             c=[[1, 0], [0, 1]])
        h = transfer_function(ss)
        assert h[0, 0] == rf((1,), (1, 1))
        assert h[1, 1] == rf((1,), (2, 1))
        assert h[0, 1].is_zero and h[1, 0].is_zero
        assert h.common_den == Poly((2, 3, 1))

    def test_companion_single_input_output(self):
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        h = transfer_function(ss)
        assert h[0, 0] == rf((1,), (2, 3, 1))

    def test_always_strictly_proper(self):
        rng = random.Random(123)
        for _ in range(25):
            ss = random_model(rng)
            assert transfer_function(ss).strictly_proper

    def test_strictly_proper_examples(self):
        proper = ratmat_reduce(PolyMatrix.from_rows([[Poly.one()]]), Poly((1, 1)))
        assert proper.strictly_proper
        constant = ratmat_reduce(PolyMatrix.from_rows([[Poly((1, 1))]]), Poly((1, 1)))
        assert not constant.strictly_proper


# Entry denominators are drawn from pairwise coprime sets, so B and C carry
# denominators that differ from the drift's and from each other's.
A_DENS, B_DENS, C_DENS = (1, 2, 4), (1, 3, 9), (1, 5, 7)


def fractions_over(dens):
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens))


def matrices(rows, cols, dens):
    return st.lists(st.lists(fractions_over(dens), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def block_companion(blocks, k):
    """Identity blocks on the superdiagonal, last block row (-C_p, ..., -C_1)."""
    n = len(blocks) * k
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - k):
        rows[i][i + k] = Fraction(1)
    for j, blk in enumerate(reversed(blocks)):
        for r in range(k):
            for c in range(k):
                rows[n - k + r][j * k + c] = -blk[r][c]
    return rows


@st.composite
def statespace_models(draw):
    """Dense, zero and companion drifts.  Observer-shaped models have
    C = (I, 0, ..., 0), controller-shaped ones B = (0, ..., 0, I)^T; some rows
    of C and columns of B are then zeroed."""
    kind = draw(st.sampled_from(("dense", "zero", "observer", "controller")))
    if kind in ("observer", "controller"):
        k = draw(st.integers(1, 2))
        p = draw(st.integers(1, 6 // k))
        a = block_companion([draw(matrices(k, k, A_DENS)) for _ in range(p)], k)
    else:
        n = draw(st.integers(1, 4))
        a = ([[Fraction(0)] * n for _ in range(n)] if kind == "zero"
             else draw(matrices(n, n, A_DENS)))
    n = len(a)
    if kind == "controller":
        b = [[Fraction(int(i - (n - k) == j)) for j in range(k)] for i in range(n)]
    else:
        b = draw(matrices(n, draw(st.integers(1, 3)), B_DENS))
    if kind == "observer":
        c = [[Fraction(int(i == j)) for j in range(n)] for i in range(k)]
    else:
        c = draw(matrices(draw(st.integers(1, 3)), n, C_DENS))
    for j in draw(st.sets(st.integers(0, len(b[0]) - 1))):
        for row in b:
            row[j] = Fraction(0)
    for i in draw(st.sets(st.integers(0, len(c) - 1))):
        c[i] = [Fraction(0)] * n
    return StateSpaceModel(a=a, b=b, c=c)


def beside(ss: StateSpaceModel, a, b, c) -> StateSpaceModel:
    """``ss`` in parallel with the block ``(a, b, c)`` of the same input and
    output dimensions: drift ``diag(ss.a, a)``, input ``[ss.b; b]`` and
    output ``[ss.c, c]``."""
    n, k = ss.n, len(a)
    return StateSpaceModel(
        a=[list(row) + [0] * k for row in ss.a] + [[0] * n + list(row) for row in a],
        b=[list(row) for row in ss.b] + [list(row) for row in b],
        c=[list(row) + list(extra) for row, extra in zip(ss.c, c)])


def with_live_channel(ss: StateSpaceModel) -> StateSpaceModel:
    """``ss`` if its transfer function is not zero; otherwise ``ss`` beside
    the block 1/(z + 1) from its first input to its first output, whose
    transfer function is that block's."""
    if not transfer_function(ss).is_zero:
        return ss
    return beside(ss, [[-1]], [[1] + [0] * (ss.m - 1)],
                  [[int(i == 0)] for i in range(ss.d)])


def nonzero_tf_models():
    """The models of :func:`statespace_models`, none of whose transfer
    functions is zero: a zero one is mapped, not filtered, so no draw is
    rejected."""
    return statespace_models().map(with_live_channel)


class TestTransferFunctionOracle:
    @example(StateSpaceModel(a=[["-2/3"]], b=[["1/3", 0]], c=[["2/5"], [0]]))
    @example(StateSpaceModel(a=[[0, 0], [0, 0]], b=[["1/9"], ["-4/3"]],
                             c=[["3/7", "1/5"]]))
    @given(statespace_models())
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_oracle(self, ss):
        h = transfer_function(ss)
        num, det = cofactor_resolvent(ss)
        oracle = ratmat_reduce(num, det)
        assert (h.rows, h.cols) == (oracle.rows, oracle.cols)
        assert h.entries == oracle.entries
        assert faddeev_leverrier(ss.integer_form) == (num, det)


# ---------------------------------------------------------------------------
# The input-block recursion and its inverse
# ---------------------------------------------------------------------------

def beta_of(a, b, p, q):
    """beta_1..beta_p of the spec with coefficients (A_1..A_p, B_0..B_q)."""
    return McarmaSpec(p=p, q=q, d=len(b[0]), m=len(b[0][0]),
                      a_coeffs=a, b_coeffs=b).beta


def recovered(a, beta):
    """(q, B_0..B_q) of the spec that McarmaSpec.from_beta rebuilds."""
    spec = McarmaSpec.from_beta(a, beta, d=len(beta[0]), m=len(beta[0][0]))
    return spec.q, spec.b_coeffs


class TestBetaRecursion:
    def test_first_order(self):
        b0 = ((Fraction(4),),)
        beta = beta_of((((Fraction(7),),),), (b0,), p=1, q=0)
        assert beta == (b0,)

    def test_second_order_lowest_ma(self):
        a1 = ((Fraction(5),),)
        b0 = ((Fraction(3),),)
        beta = beta_of((a1, a1), (b0,), p=2, q=0)
        assert beta == (((Fraction(0),),), b0)

    def test_second_order_full_ma_closed_form(self):
        rng = random.Random(1)
        for _ in range(20):
            d = rng.randint(1, 3)
            m = rng.randint(1, 3)
            a = (rand_mat(rng, d, d), rand_mat(rng, d, d))
            b = (rand_mat(rng, d, m), rand_mat(rng, d, m))
            beta = beta_of(a, b, p=2, q=1)
            assert beta[0] == b[0]
            assert beta[1] == mat_sub(b[1], mat_mul(a[0], b[0]))

    def test_third_order_against_unrolled_oracle(self):
        rng = random.Random(2)
        for _ in range(30):
            d = rng.randint(1, 3)
            m = rng.randint(1, 3)
            q = rng.randint(0, 2)
            a = tuple(rand_mat(rng, d, d) for _ in range(3))
            b = tuple(rand_mat(rng, d, m) for _ in range(q + 1))
            assert beta_of(a, b, 3, q) == unrolled_beta(a, b, 3, q)

    def test_low_index_blocks_vanish(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rng.randint(1, 6)
            q = rng.randint(0, p - 1)
            a = tuple(rand_mat(rng, 2, 2) for _ in range(p))
            b = tuple(rand_mat(rng, 2, 2) for _ in range(q + 1))
            beta = beta_of(a, b, p, q)
            for k in range(1, p - q):
                assert beta[k - 1] == mat_zeros(2, 2)

    def test_order_violation_rejected(self):
        a1 = ((Fraction(1),),)
        b0 = ((Fraction(1),),)
        with pytest.raises(ValueError):
            beta_of((a1,), (b0, b0), p=1, q=1)


class TestQRecovery:
    def test_first_order(self):
        a1 = ((Fraction(2),),)
        beta = (((Fraction(9),),),)
        q, b = recovered((a1,), beta)
        assert q == 0 and b == beta

    def test_leading_zero_block_lowers_order(self):
        a1 = rand_mat(random.Random(4), 2, 2)
        a2 = rand_mat(random.Random(5), 2, 2)
        b0 = rand_mat(random.Random(6), 2, 2)
        beta = (mat_zeros(2, 2), b0)
        q, b = recovered((a1, a2), beta)
        assert q == 0
        assert b == (b0,)

    def test_second_order_inverse_closed_form(self):
        rng = random.Random(7)
        for _ in range(20):
            a1, a2 = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
            b1 = rand_mat(rng, 2, 2)
            b2 = rand_mat(rng, 2, 2)
            if b1 == mat_zeros(2, 2):
                continue
            q, b = recovered((a1, a2), (b1, b2))
            assert q == 1
            assert b[0] == b1
            assert b[1] == tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(b2, mat_mul(a1, b1)))

    def test_blocks_must_be_d_by_m(self):
        # all-zero blocks of the wrong shape are not a zero-Q spec
        with pytest.raises(DimensionMismatch):
            McarmaSpec.from_beta((mat_identity(2),), (mat_zeros(5, 7),), d=2, m=3)
        with pytest.raises(DimensionMismatch):
            McarmaSpec.from_beta((mat_identity(2),), (mat_identity(2),), d=2, m=3)

    def test_round_trip_both_ways(self):
        rng = random.Random(8)
        for _ in range(40):
            p = rng.randint(1, 5)
            q = rng.randint(0, p - 1)
            d = rng.randint(1, 3)
            m = rng.randint(1, 3)
            a = tuple(rand_mat(rng, d, d) for _ in range(p))
            while True:
                b = tuple(rand_mat(rng, d, m) for _ in range(q + 1))
                if b[0] != mat_zeros(d, m):
                    break
            beta = beta_of(a, b, p, q)
            q2, b2 = recovered(a, beta)
            assert (q2, b2) == (q, b)
            assert beta_of(a, b2, p, q2) == beta


# ---------------------------------------------------------------------------
# Observer canonical form
# ---------------------------------------------------------------------------

@st.composite
def transfer_functions(draw):
    """Nonzero strictly proper H = N(z) / pi(z), reduced: pi monic of
    degree 1..4, N d x m (d, m in 1..3) of degree q below it, with a nonzero
    z^q coefficient in one drawn entry."""
    p, d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = draw(st.integers(0, p - 1))
    pi = Poly((*draw(st.lists(fractions_over(A_DENS), min_size=p, max_size=p)), 1))
    entries = [draw(st.lists(fractions_over(B_DENS), min_size=q + 1, max_size=q + 1))
               for _ in range(d * m)]
    entries[draw(st.integers(0, d * m - 1))][q] = draw(
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from(B_DENS)))
    return ratmat_reduce(PolyMatrix(d, m, tuple(map(Poly, entries))), pi)


def scalar_spec(h, q: int) -> McarmaSpec:
    """The spec of the left fraction (d(z) I, common_num) of ``h``, with
    moving-average order ``q``: above the numerator's degree, its leading
    blocks are zero."""
    p, d = h.common_den.degree, h.rows
    a = tuple(tuple(tuple(h.common_den.coefficient(p - i) * (r == c) for c in range(d))
                    for r in range(d)) for i in range(1, p + 1))
    return McarmaSpec(p=p, q=q, d=d, m=h.cols, a_coeffs=a,
                      b_coeffs=tuple(h.common_num.coefficient_matrix(q - j)
                                     for j in range(q + 1)))


class TestObserverRealization:
    # q = 0 < p - 1 = 2, so beta_1 = beta_2 = 0, with two outputs and one input
    @example(h=ratmat_reduce(PolyMatrix.from_rows([[Poly((1,))], [Poly((-2,))]]),
                             Poly((1, 1, 0, 1))))
    # one output and three inputs, one input column zero
    @example(h=ratmat_reduce(PolyMatrix.from_rows([[Poly((1, 2)), Poly.zero(),
                                                    Poly((Fraction(1, 3),))]]),
                             Poly((2, -1, 1))))
    @given(transfer_functions())
    @settings(max_examples=60, deadline=None)
    def test_input_blocks_are_the_spec_recursion(self, h):
        # B stacks H's first p Markov parameters; the spec's recursion in
        # (A_i, B_j) must give the same blocks, whether its q is the
        # numerator's degree or p - 1 with zero leading blocks
        obs, mfd = observer_realization(h)
        p, q = h.common_den.degree, h.common_num.degree
        for spec_q in {q, p - 1}:
            spec = scalar_spec(h, spec_q)
            assert obs.statespace.b == tuple(row for blk in spec.beta for row in blk)
            assert mfd == spec.fraction()
        assert obs.statespace == assemble_observer_ss(scalar_spec(h, q))

    def test_scalar_first_order(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly.constant(5)]]), Poly((3, 1)))
        obs, mfd = observer_realization(h)
        ss = obs.statespace
        assert ss.a == ((Fraction(-3),),)
        assert ss.b == ((Fraction(5),),)
        assert ss.c == ((Fraction(1),),)
        assert mfd.p == 1 and mfd.q == 0

    def test_diagonal_two_channel(self):
        num = PolyMatrix.from_rows([[Poly((2, 1)), Poly.zero()],
                                    [Poly.zero(), Poly((1, 1))]])
        h = ratmat_reduce(num, Poly((2, 3, 1)))
        obs, mfd = observer_realization(h)
        assert obs.fraction is mfd and mfd.side == "left"
        assert mfd.p == 2 and mfd.q == 1
        three_i = tuple(tuple(Fraction(3) if i == j else Fraction(0)
                              for j in range(2)) for i in range(2))
        two_i = tuple(tuple(Fraction(2) if i == j else Fraction(0)
                            for j in range(2)) for i in range(2))
        # autoregressive blocks A_1 = 3I, A_2 = 2I of P(z) = I z^2 + 3I z + 2I
        assert [mfd.den.coefficient_matrix(k) for k in (2, 1, 0)] == [
            mat_identity(2), three_i, two_i]
        # numerator diag(z+2, z+1): leading coefficient I, constant diag(2, 1)
        b0, b1 = mfd.num.coefficient_matrix(1), mfd.num.coefficient_matrix(0)
        assert b0 == mat_identity(2)
        assert b1 == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
        # the input blocks beta_1 = B_0 and beta_2 = B_1 - A_1 B_0 stack into B
        assert obs.statespace.b == b0 + mat_sub(b1, mat_mul(three_i, b0))
        assert ratmat_equal(transfer_function(obs.statespace), h)
        assert mfd.num == num

    def test_round_trip_random_models(self):
        rng = random.Random(11)
        for _ in range(15):
            ss, h = random_model_nonzero_tf(rng)
            obs, _ = observer_realization(h)
            assert ratmat_equal(transfer_function(obs.statespace), h)

    def test_zero_rejected(self):
        h = ratmat_reduce(PolyMatrix.zero(2, 2), Poly((1, 1)))
        with pytest.raises(ZeroTransferFunction):
            observer_realization(h)

    def test_not_strictly_proper_rejected(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((1, 1))]]), Poly((2, 1)))
        with pytest.raises(NotStrictlyProper):
            observer_realization(h)


# ---------------------------------------------------------------------------
# Controller canonical form
# ---------------------------------------------------------------------------

class TestControllerRealization:
    def test_scalar_first_order_mirrors_observer(self):
        # at p=1, d=m=1 both forms share the drift [-a] and the transfer
        # function; the constant c sits in B for one form and C for the other
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly.constant(5)]]), Poly((3, 1)))
        ctrl, _ = controller_realization(h)
        obs, _ = observer_realization(h)
        assert ctrl.statespace.a == obs.statespace.a == ((Fraction(-3),),)
        assert ctrl.statespace.b == ((Fraction(1),),)
        assert ctrl.statespace.c == ((Fraction(5),),)
        assert ratmat_equal(transfer_function(ctrl.statespace),
                            transfer_function(obs.statespace))

    def test_second_order_scalar(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((3, 1))]]), Poly((2, 3, 1)))
        ctrl, mfd = controller_realization(h)
        ss = ctrl.statespace
        assert ss.a == ((Fraction(0), Fraction(1)), (Fraction(-2), Fraction(-3)))
        assert ss.b == ((Fraction(0),), (Fraction(1),))
        assert ss.c == ((Fraction(3), Fraction(1)),)
        assert ctrl.fraction is mfd
        # numerator z + 3: degree qt = 1, blocks Bt_0 = 1 and Bt_1 = 3
        assert mfd.q == 1
        assert [mfd.num.coefficient_matrix(1 - j) for j in range(2)] == [
            ((Fraction(1),),), ((Fraction(3),),)]
        assert ratmat_equal(transfer_function(ss), h)
        assert mfd.side == "right"

    def test_round_trip_random_models(self):
        rng = random.Random(12)
        for _ in range(15):
            ss, h = random_model_nonzero_tf(rng)
            ctrl, _ = controller_realization(h)
            assert ratmat_equal(transfer_function(ctrl.statespace), h)

    def test_zero_rejected(self):
        h = ratmat_reduce(PolyMatrix.zero(1, 2), Poly((1, 1)))
        with pytest.raises(ZeroTransferFunction):
            controller_realization(h)


# ---------------------------------------------------------------------------
# Matrix fraction descriptions
# ---------------------------------------------------------------------------

class TestMatrixFractions:
    def test_left_identity_on_random_models(self):
        rng = random.Random(13)
        for _ in range(10):
            _, h = random_model_nonzero_tf(rng)
            mfd = observer_realization(h)[1]
            assert ratmat_equal(laplace_inverse_times(mfd.den, mfd.num), h)

    def test_right_identity_on_random_models(self):
        # H * Pt = Qt, cleared of denominators: commonNum * Pt = commonDen * Qt
        rng = random.Random(14)
        for _ in range(10):
            _, h = random_model_nonzero_tf(rng)
            mfd = controller_realization(h)[1]
            lhs = h.common_num @ mfd.den
            rhs = mfd.num.scale(h.common_den)
            assert lhs == rhs

    def test_degrees_agree_and_dominate(self):
        rng = random.Random(15)
        for _ in range(10):
            _, h = random_model_nonzero_tf(rng)
            left = observer_realization(h)[1]
            right = controller_realization(h)[1]
            assert left.p == right.p
            assert left.p > left.q
            assert right.p > right.q
            assert left.den.coefficient_matrix(left.p) == mat_identity(h.rows)
            assert right.den.coefficient_matrix(right.p) == mat_identity(h.cols)

    def test_scalar_case_sides_coincide(self):
        h = ratmat_reduce(PolyMatrix.from_rows([[Poly((3, 1))]]), Poly((2, 3, 1)))
        left = observer_realization(h)[1]
        right = controller_realization(h)[1]
        assert left.den == right.den
        assert left.num == right.num

    def test_fractions_have_the_scalar_denominator(self):
        # both fractions are (d(z) I, N(z)) with d = H's common denominator
        rng = random.Random(19)
        for _ in range(10):
            _, h = random_model_nonzero_tf(rng)
            p, q = len(h.common_den.coeffs) - 1, h.common_num.degree
            for side, k, (_, mfd) in (("left", h.rows, observer_realization(h)),
                                      ("right", h.cols, controller_realization(h))):
                assert mfd == MfdPair(side, PolyMatrix.identity(k).scale(h.common_den),
                                      h.common_num)
                assert (mfd.p, mfd.q) == (p, q)

    def test_invalid_leading_coefficient_rejected(self):
        den = PolyMatrix.from_rows([[Poly((1, 2))]])  # 2z + 1, not monic
        num = PolyMatrix.from_rows([[Poly.one()]])
        with pytest.raises(ValueError):
            MfdPair(side="left", den=den, num=num)

    def test_numerator_must_fit_the_denominator(self):
        # a left numerator has den's rows, a right one den's columns
        den = PolyMatrix.identity(2).scale(Poly((1, 1)))
        for side, num in (("left", [[Poly.one()]]),
                          ("right", [[Poly.one()], [Poly.constant(2)]])):
            with pytest.raises(DimensionMismatch, match="does not fit"):
                MfdPair(side, den, PolyMatrix.from_rows(num))

    def test_orders_are_the_degrees(self):
        # p and q are read off den and num; a zero numerator has q None
        den = PolyMatrix.from_rows([[Poly((2, 3, 1))]])
        for num, q in ((Poly((3, 1)), 1), (Poly.constant(3), 0), (Poly.zero(), None)):
            mfd = MfdPair("right", den, PolyMatrix.from_rows([[num]]))
            assert (mfd.p, mfd.q) == (2, q)

    def test_spec_with_zero_leading_ma_block(self):
        # B_0 = 0 leaves Q(z) = 3, so the fraction's q is 0, not the spec's 1
        spec = McarmaSpec(p=2, q=1, d=1, m=1, a_coeffs=([[1]], [[2]]),
                          b_coeffs=([[0]], [[3]]))
        den = PolyMatrix.from_rows([[Poly((2, 1, 1))]])
        assert spec.fraction() == MfdPair("left", den,
                                          PolyMatrix.from_rows([[Poly.constant(3)]]))
        assert (spec.fraction().p, spec.fraction().q) == (2, 0)

    def test_spec_with_zero_ma_part(self):
        spec = McarmaSpec(p=2, q=None, d=2, m=1, a_coeffs=(mat_identity(2),) * 2,
                          b_coeffs=())
        den = PolyMatrix.identity(2).scale(Poly((1, 1, 1)))
        assert spec.fraction() == MfdPair("left", den, PolyMatrix.zero(2, 1))
        assert (spec.fraction().p, spec.fraction().q) == (2, None)


def json_blocks(pm: PolyMatrix, degrees) -> list:
    """The coefficient blocks of ``pm`` at ``degrees``, as report JSON."""
    return [[[format_rational(x) for x in row] for row in pm.coefficient_matrix(k)]
            for k in degrees]


class TestCanonicalReport:
    @given(nonzero_tf_models())
    @settings(max_examples=40, deadline=None)
    def test_report_reads_the_fraction(self, ss):
        h = transfer_function(ss)
        for form, realize in (("observer", observer_realization),
                              ("controller", controller_realization)):
            real, mfd = realize(h)
            assert real.fraction is mfd
            p, q = mfd.den.degree, mfd.num.degree
            assert (mfd.p, mfd.q) == (p, q)
            assert (p, q) == (h.common_den.degree, h.common_num.degree)
            report = cli.report_canonical(form, h)
            assert (report["p"], report["mfd"]["p"], report["mfd"]["q"]) == (p, p, q)
            assert report["ar_coeffs"] == json_blocks(mfd.den, range(p - 1, -1, -1))
            descending = json_blocks(mfd.num, range(q, -1, -1))
            if form == "observer":
                assert (report["q"], report["ma_coeffs"]) == (q, descending)
                b = [[format_rational(x) for x in row] for row in real.statespace.b]
                assert report["input_blocks"] == [b[k * h.rows:(k + 1) * h.rows]
                                                  for k in range(p)]
            else:
                assert report["q_tilde"] == q
                assert report["num_coeffs_descending"] == descending
                assert report["num_coeffs"] == json_blocks(mfd.num, range(p))
            assert report["statespace"]["B"] == [
                [format_rational(x) for x in row] for row in real.statespace.b]


# ---------------------------------------------------------------------------
# Assembly from coefficient specs
# ---------------------------------------------------------------------------

class TestAssembleObserver:
    def test_first_order_spec(self):
        a1 = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
        b0 = ((Fraction(1),), (Fraction(4),))
        spec = McarmaSpec(p=1, q=0, d=2, m=1, a_coeffs=(a1,), b_coeffs=(b0,))
        ss = assemble_observer_ss(spec)
        assert ss.a == tuple(tuple(-x for x in row) for row in a1)
        assert ss.b == b0
        assert ss.c == mat_identity(2)

    def test_full_matrix_coefficients_match_fraction(self):
        # second-order spec with genuinely non-scalar autoregressive blocks
        a1 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
        a2 = mat_identity(2)
        b0 = mat_identity(2)
        b1 = mat_zeros(2, 2)
        spec = McarmaSpec(p=2, q=1, d=2, m=2, a_coeffs=(a1, a2), b_coeffs=(b0, b1))
        ss = assemble_observer_ss(spec)
        assert ss.n == 4
        # first block row carries the identity link to the next state block
        assert ss.a[0] == (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        assert ss.a[1] == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        # last block row is (-A_2, -A_1)
        assert ss.a[2] == (Fraction(-1), Fraction(0), Fraction(-1), Fraction(0))
        assert ss.a[3] == (Fraction(0), Fraction(-1), Fraction(0), Fraction(-2))
        fraction = spec.fraction()
        oracle = laplace_inverse_times(fraction.den, fraction.num)
        assert ratmat_equal(transfer_function(ss), oracle)

    def test_round_trip_recovers_ma_coefficients(self):
        rng = random.Random(16)
        for _ in range(15):
            p = rng.randint(1, 4)
            q = rng.randint(0, p - 1)
            d = rng.randint(1, 2)
            m = rng.randint(1, 2)
            a = tuple(rand_mat(rng, d, d) for _ in range(p))
            while True:
                b = tuple(rand_mat(rng, d, m) for _ in range(q + 1))
                if b[0] != mat_zeros(d, m):
                    break
            spec = McarmaSpec(p=p, q=q, d=d, m=m, a_coeffs=a, b_coeffs=b)
            rebuilt = McarmaSpec.from_beta(spec.a_coeffs, spec.beta, d, m)
            assert (rebuilt.q, rebuilt.b_coeffs) == (q, b)

    def test_zero_ma_flag(self):
        a1 = ((Fraction(3),),)
        spec = McarmaSpec(p=1, q=None, d=1, m=1, a_coeffs=(a1,), b_coeffs=())
        ss = assemble_observer_ss(spec)
        assert transfer_function(ss).is_zero

    def test_from_beta_round_trip(self):
        rng = random.Random(17)
        a = (rand_mat(rng, 2, 2), rand_mat(rng, 2, 2))
        b = (rand_mat(rng, 2, 1), rand_mat(rng, 2, 1))
        spec = McarmaSpec(p=2, q=1, d=2, m=1, a_coeffs=a, b_coeffs=b)
        rebuilt = McarmaSpec.from_beta(a, spec.beta, d=2, m=1)
        assert rebuilt == spec

    def test_from_beta_all_zero_gives_zero_ma(self):
        a = (mat_identity(2),)
        spec = McarmaSpec.from_beta(a, (mat_zeros(2, 3),), d=2, m=3)
        assert spec.q is None and spec.b_coeffs == ()


@st.composite
def mcarma_specs(draw):
    """Full-matrix specs: p in 1..4, d and m in 1..3, q None or 0..p-1."""
    p, d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = draw(st.sampled_from((None, *range(p))))
    a = tuple(draw(matrices(d, d, A_DENS)) for _ in range(p))
    b = tuple(draw(matrices(d, m, B_DENS)) for _ in range(0 if q is None else q + 1))
    return McarmaSpec(p=p, q=q, d=d, m=m, a_coeffs=a, b_coeffs=b)


class TestSpecFraction:
    @given(mcarma_specs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_left_identity(self, spec):
        rebuilt = McarmaSpec.from_beta(spec.a_coeffs, spec.beta, spec.d, spec.m)
        assert rebuilt.beta == spec.beta
        if spec.q is None or not mat_is_zero(spec.b_coeffs[0]):
            assert rebuilt == spec
        # P H = Q with H realized by the observer form, cleared of denominators
        f = spec.fraction()
        h = transfer_function(assemble_observer_ss(spec))
        assert f.den @ h.common_num == f.num.scale(h.common_den)


# ---------------------------------------------------------------------------
# Equivalence verdicts
# ---------------------------------------------------------------------------

class TestTfEquivalent:
    def test_model_vs_own_canonical_forms(self):
        rng = random.Random(18)
        for _ in range(8):
            ss, h = random_model_nonzero_tf(rng)
            obs, _ = observer_realization(h)
            ctrl, _ = controller_realization(h)
            assert tf_equivalent(ss, obs.statespace)
            assert tf_equivalent(ss, ctrl.statespace)
            assert tf_equivalent(obs.statespace, ctrl.statespace)

    def test_output_scaling_breaks_equivalence(self):
        rng = random.Random(19)
        ss, _ = random_model_nonzero_tf(rng)
        scaled = StateSpaceModel(
            a=ss.a, b=ss.b,
            c=tuple(tuple(2 * x for x in row) for row in ss.c))
        assert not tf_equivalent(ss, scaled)

    def test_dimension_mismatch_rejected(self):
        ss1 = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
        for ss2 in (StateSpaceModel(a=[[-1]], b=[[1, 0]], c=[[1]]),
                    StateSpaceModel(a=[[-1]], b=[[1]], c=[[1], [0]])):
            with pytest.raises(DimensionMismatch):
                tf_equivalent(ss1, ss2)
            with pytest.raises(DimensionMismatch):
                tf_equivalent(ss2, ss1)


# ---------------------------------------------------------------------------
# Markov-parameter verdicts against reduced transfer functions
# ---------------------------------------------------------------------------

def bezout(f: Poly, g: Poly):
    """``(s, t)`` with ``s*f + t*g == 1``, ``deg s < deg g`` and
    ``deg t < deg f``, for coprime nonconstant ``f`` and ``g``; ``None`` if
    they share a factor.  Extended Euclid on ``Poly.__divmod__``."""
    r0, r1 = f, g
    s0, s1, t0, t1 = Poly.one(), Poly.zero(), Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree > 0:
        return None
    unit = Fraction(1) / r0.coefficient(0)
    return s0 * unit, t0 * unit


def scalar_controller_model(num: Poly, den: Poly) -> StateSpaceModel:
    """``num/den`` (``den`` monic, ``deg num < deg den``) in controller form."""
    n = den.degree
    a = block_companion([[[den.coefficient(n - i)]] for i in range(1, n + 1)], 1)
    b = [[Fraction(int(i == n - 1))] for i in range(n)]
    return StateSpaceModel(a=a, b=b, c=[[num.coefficient(i) for i in range(n)]])


@st.composite
def monic_polys(draw):
    degree = draw(st.integers(1, 4))
    return Poly(tuple(draw(st.lists(fractions_over(A_DENS), min_size=degree,
                                    max_size=degree))) + (Fraction(1),))


@st.composite
def tight_distinct_pairs(draw):
    """Models of ``n1/chi1`` and ``n2/chi2`` with ``n1 chi2 - n2 chi1 = 1``.
    The difference of the two functions is ``1/(chi1 chi2)``, so their
    Markov parameters agree below index ``N1 + N2 - 1`` and differ there."""
    chi1, chi2 = draw(monic_polys()), draw(monic_polys())
    coeffs = bezout(chi2, chi1)
    assume(coeffs is not None)
    n1, t = coeffs
    return scalar_controller_model(n1, chi1), scalar_controller_model(-t, chi2)


def with_delayed_impulse(ss: StateSpaceModel, lag: int, eps) -> StateSpaceModel:
    """``ss`` in parallel with a nilpotent chain of ``lag + 1`` states that
    adds ``eps z^-(lag+1)`` to entry (0, 0) of its transfer function: Markov
    parameter ``lag`` changes by ``eps`` and no other one does."""
    k = lag + 1
    return beside(ss, [[int(j == i + 1) for j in range(k)] for i in range(k)],
                  [[eps if i == k - 1 and j == 0 else 0 for j in range(ss.m)]
                   for i in range(k)],
                  [[int(r == 0 and j == 0) for j in range(k)] for r in range(ss.d)])


def fraction_terms(series, count: int) -> list:
    """The first ``count`` terms of a ``(den, nums)`` Markov series, each
    the tuple of its exact entries, row by row."""
    return [tuple(Fraction(x, den) for x in nums)
            for den, nums in itertools.islice(series, count)]


def reduced_verdict(ss1, ss2) -> bool:
    return ratmat_equal(transfer_function(ss1), transfer_function(ss2))


@st.composite
def verdict_pairs(draw):
    """A model and a second one of the same input and output dimensions:
    the model beside an unreachable block or beside a reachable,
    unobservable one (whose pi(A) B is not zero, so :func:`tf_match` takes
    its N + p path), a model whose transfer function is zero, or an
    independent model of another state dimension."""
    ss = draw(statespace_models())
    kind = draw(st.sampled_from(
        ("unreachable", "unobservable", "zero", "independent")))
    k = draw(st.integers(1, 3))
    if kind == "independent" and k >= ss.n:
        k += 1
    a = draw(matrices(k, k, A_DENS))
    b = draw(matrices(k, ss.m, B_DENS))
    c = draw(matrices(ss.d, k, C_DENS))
    if kind == "unreachable" or (kind == "zero" and draw(st.booleans())):
        b = [[0] * ss.m for _ in range(k)]
    elif kind != "independent":
        c = [[0] * k for _ in range(ss.d)]
    if kind in ("zero", "independent"):
        return ss, StateSpaceModel(a=a, b=b, c=c)
    return ss, beside(ss, a, b, c)


ONE_POLE = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])


class TestMarkovVerdictOracle:
    @given(nonzero_tf_models())
    @settings(max_examples=40, deadline=None)
    def test_equal_pairs(self, ss):
        h = transfer_function(ss)
        for realize in (observer_realization, controller_realization):
            form = realize(h)[0].statespace
            assert tf_equivalent(ss, form) is reduced_verdict(ss, form) is True
            assert tf_match(form, h) is ratmat_equal(
                transfer_function(form), h) is True

    # 1/(z - a) against 1/(z - b): Markov parameters a^k and b^k
    @example(pair=(StateSpaceModel(a=[[2]], b=[[1]], c=[[1]]),
                   StateSpaceModel(a=[[5]], b=[[1]], c=[[1]])))
    @given(tight_distinct_pairs())
    @settings(max_examples=60, deadline=None)
    def test_tight_distinct_pairs(self, pair):
        ss1, ss2 = pair
        count = ss1.n + ss2.n
        m1 = fraction_terms(exactalg.markov_series(ss1.integer_form), count)
        m2 = fraction_terms(exactalg.markov_series(ss2.integer_form), count)
        assert m1[:-1] == m2[:-1] and m1[-1] != m2[-1]
        h1, h2 = transfer_function(ss1), transfer_function(ss2)
        assert tf_equivalent(ss1, ss2) is reduced_verdict(ss1, ss2) is False
        assert tf_match(ss1, h2) is ratmat_equal(h1, h2) is False
        assert tf_match(ss2, h1) is False
        assert tf_match(ss1, h1) and tf_match(ss2, h2)

    # 1/(z + 1) beside the reachable, unobservable mode at -2
    @example(pair=(ONE_POLE, beside(ONE_POLE, [[-2]], [[1]], [[0]])))
    # 1/(z + 1) against 1/(z + 1) + 1/(z + 2)^2: equal in the first Markov
    # parameter, which is all that the smaller model's p = 1 would compare
    @example(pair=(ONE_POLE, beside(ONE_POLE, [[-2, 1], [0, -2]], [[0], [1]],
                                    [[1, 0]])))
    @given(verdict_pairs())
    @settings(max_examples=80, deadline=None)
    def test_joined_zero_and_independent_pairs(self, pair):
        ss1, ss2 = pair
        verdict = reduced_verdict(ss1, ss2)
        assert tf_equivalent(ss1, ss2) is verdict
        assert tf_equivalent(ss2, ss1) is verdict


# ---------------------------------------------------------------------------
# Integer forms of assembled models
# ---------------------------------------------------------------------------

# (z + 1)/(z^2 + z/2 + 1/3): the drift is scaled by s = 6
NON_INTEGER_DEN = ratmat_reduce(PolyMatrix.from_rows([[Poly((1, 1))]]),
                                Poly((Fraction(1, 3), Fraction(1, 2), 1)))


class TestIntegerForm:
    @example(h=NON_INTEGER_DEN)
    @given(transfer_functions())
    @settings(max_examples=60, deadline=None)
    def test_canonical_forms_fill_in_their_scaled_rows(self, h):
        forms = [realize(h)[0].statespace
                 for realize in (observer_realization, controller_realization)]
        copies = [StateSpaceModel(ss.a, ss.b, ss.c) for ss in forms]
        # twice h differs from h in every nonzero Markov parameter
        doubled = ratmat_reduce(h.common_num.scale(Poly((2,))), h.common_den)
        for ss, copy in zip(forms, copies):
            assert ss.integer_form == integer_form(ss.a, ss.b, ss.c)
            assert ss == copy
            assert faddeev_leverrier(ss.integer_form) == faddeev_leverrier(
                copy.integer_form)
            assert tf_match(ss, h) and tf_match(copy, h)
            assert not tf_match(ss, doubled) and not tf_match(copy, doubled)
        assert tf_equivalent(*forms) and tf_equivalent(*copies)
        assert tf_equivalent(forms[0], copies[1]) and tf_equivalent(copies[0], forms[1])

    def test_drift_scale_is_the_denominators_lcm(self):
        obs = observer_realization(NON_INTEGER_DEN)[0].statespace
        s, a_rows = obs.integer_form[:2]
        assert s == 6
        # the companion's last row (-1/3, -1/2), scaled by 6
        assert a_rows == (((1, 6),), ((0, -2), (1, -3)))
        assert obs.a[-1] == (Fraction(-1, 3), Fraction(-1, 2))

    @given(transfer_functions(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_general_builder_scales_to_the_filled_in_form(self, h, data):
        # assemble_observer_ss validates its rows and scales them on first
        # use; on a scalar spec it must reach the integers observer_realization
        # wrote
        q = data.draw(st.integers(h.common_num.degree, h.common_den.degree - 1))
        obs = observer_realization(h)[0].statespace
        assert assemble_observer_ss(scalar_spec(h, q)).integer_form == obs.integer_form

    def test_cached_on_the_model(self):
        ss = StateSpaceModel(a=[["1/2"]], b=[["1/3"]], c=[["2/5"]])
        assert ss.integer_form is ss.integer_form
        assert ss.integer_form == (2, (((0, 1),),), 3, ((1,),), 5, (((0, 2),),))


class TestMarkovGuards:
    @pytest.fixture
    def count_faddeev(self, monkeypatch):
        calls = []

        def counting(form):
            calls.append(len(form.a_rows))
            return faddeev_leverrier(form)

        monkeypatch.setattr(realization, "faddeev_leverrier", counting)
        monkeypatch.setattr(exactalg, "faddeev_leverrier", counting)
        return calls

    def test_no_faddeev_on_forms(self, count_faddeev):
        rng = random.Random(31)
        ss, h = random_model_nonzero_tf(rng)
        assert count_faddeev == [ss.n]
        for form in ("observer", "controller"):
            assert cli.report_canonical(form, h)["tf_match"] is True
        obs, _ = observer_realization(h)
        assert tf_equivalent(ss, obs.statespace)
        # one run on the smaller model, ss by the tie rule, none on a form
        assert count_faddeev == [ss.n, ss.n]

    def test_no_faddeev_on_a_prefix_refutation(self, count_faddeev):
        # pairs that first differ at Markov parameter k < min(N1, N2) = 3:
        # C doubled (k = 0, as in test_output_scaling_breaks_equivalence),
        # one entry of A moved (k = 1, C B is unchanged) and the model
        # beside a delayed impulse of lag 2 (k = 2)
        ss, _ = random_model_nonzero_tf(random.Random(16))
        scaled = StateSpaceModel(
            a=ss.a, b=ss.b,
            c=tuple(tuple(2 * x for x in row) for row in ss.c))
        a = [list(row) for row in ss.a]
        a[0][0] += 1
        moved = StateSpaceModel(a=a, b=ss.b, c=ss.c)
        want = fraction_terms(exactalg.markov_series(ss.integer_form), ss.n)
        for other, k in ((scaled, 0), (moved, 1),
                         (with_delayed_impulse(ss, 2, 1), 2)):
            got = fraction_terms(exactalg.markov_series(other.integer_form),
                                 k + 1)
            assert got[:k] == want[:k] and got[k] != want[k]
            del count_faddeev[:]
            assert not tf_equivalent(ss, other)
            assert not tf_equivalent(other, ss)
            assert count_faddeev == []

    @pytest.fixture
    def blocks_formed(self, monkeypatch):
        """One ``[N, blocks formed]`` pair for each :func:`markov_blocks`
        stream that ``realization`` starts."""
        streams = []

        def counting(form):
            stream = [len(form.a_rows), 0]
            streams.append(stream)
            for x in exactalg.markov_blocks(form):
                stream[1] += 1
                yield x

        monkeypatch.setattr(realization, "markov_blocks", counting)
        return streams

    def test_equivalence_forms_each_block_once(self, blocks_formed):
        # one stream per model: the smaller model's gives its N-term prefix,
        # and the larger model's gives the same prefix, pi(A) B and the
        # compared terms, so each X_k of the larger model is formed once
        ss = StateSpaceModel(a=[[-1, 0], [0, -2]], b=[[1], [1]], c=[[1, 0], [0, 1]])
        h = transfer_function(ss)
        p = h.common_den.degree
        obs = observer_realization(h)[0].statespace
        ctrl = controller_realization(h)[0].statespace
        # ss beside a reachable, unobservable mode: pi(A) B != 0
        joined = beside(ss, [[-3]], [[1]], [[0], [0]])
        assert (p, obs.n, ctrl.n, joined.n) == (2, 4, 2, 3)
        for other, terms in ((obs, p + 1), (ctrl, p + 1), (joined, joined.n + p)):
            for pair in ((ss, other), (other, ss)):
                del blocks_formed[:]
                assert tf_equivalent(*pair)
                smaller, larger = sorted(pair, key=lambda model: model.n)
                assert blocks_formed == [[smaller.n, smaller.n],
                                         [larger.n, max(smaller.n, terms)]]

    def test_no_rational_function_on_forms(self, monkeypatch):
        built = []
        post_init = RationalFunction.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(RationalFunction, "__post_init__", counting)
        _, h = random_model_nonzero_tf(random.Random(33))
        for form in ("observer", "controller"):
            assert cli.report_canonical(form, h)["tf_match"] is True
        assert built == []
        h[0, 0]
        assert len(built) == h.rows * h.cols

    def test_perturbed_drift_entry_fails_match(self):
        rng = random.Random(32)
        _, h = random_model_nonzero_tf(rng)
        for realize in (observer_realization, controller_realization):
            form = realize(h)[0].statespace
            assert tf_match(form, h)
            a = [list(row) for row in form.a]
            a[-1][0] += Fraction(1, 10 ** 9)
            assert not tf_match(StateSpaceModel(a=a, b=form.b, c=form.c), h)

    @pytest.fixture
    def h_terms_drawn(self, monkeypatch):
        """How many terms of H's Markov series each ``tf_match`` draws."""
        drawn = []

        def counting(h):
            call = len(drawn)
            drawn.append(0)

            def terms():
                for term in exactalg.ratmat_markov_series(h):
                    drawn[call] += 1
                    yield term
            return terms()

        monkeypatch.setattr(realization, "ratmat_markov_series", counting)
        return drawn

    def test_forms_are_certified_by_p_terms(self, h_terms_drawn, blocks_formed):
        # p terms of H against the blocks X_0, ..., X_p of one form stream
        rng = random.Random(33)
        for _ in range(5):
            _, h = random_model_nonzero_tf(rng)
            p = h.common_den.degree
            for form, k in (("observer", h.rows), ("controller", h.cols)):
                del h_terms_drawn[:], blocks_formed[:]
                assert cli.report_canonical(form, h)["tf_match"] is True
                assert h_terms_drawn == [p]
                assert blocks_formed == [[p * k, p + 1]]

    def test_agreement_short_of_the_bound_fails_match(self):
        # Two bent copies of each form of H, each agreeing with H in all
        # Markov parameters before number k and differing there:
        # - in parallel with a delayed impulse, k = p and pi(A) B != 0, so
        #   trusting p terms without checking pi(A) B would pass it;
        # - with one entry of B (observer) or C (controller) moved, the
        #   drift and so pi(A) B = 0 stay, and k = p - 1, so stopping one
        #   term early would pass it.
        rng = random.Random(34)
        eps = Fraction(1, 10 ** 9)
        for _ in range(6):
            _, h = random_model_nonzero_tf(rng)
            p = h.common_den.degree
            want = fraction_terms(exactalg.ratmat_markov_series(h), p + 1)
            obs = observer_realization(h)[0].statespace
            ctrl = controller_realization(h)[0].statespace
            b = [list(row) for row in obs.b]
            b[-1][0] += eps
            c = [list(row) for row in ctrl.c]
            c[0][0] += eps
            bent = [(with_delayed_impulse(obs, p, eps), p, obs),
                    (with_delayed_impulse(ctrl, p, eps), p, ctrl),
                    (StateSpaceModel(a=obs.a, b=b, c=obs.c), p - 1, obs),
                    (StateSpaceModel(a=ctrl.a, b=ctrl.b, c=c), p - 1, ctrl)]
            for ss, k, form in bent:
                got = fraction_terms(exactalg.markov_series(ss.integer_form),
                                     k + 1)
                assert got[:k] == want[:k] and got[k] != want[k]
                assert not tf_match(ss, h)
                # check-equiv's entry point: the form is the smaller model
                # (or ties with the bent one), so the bent model is refuted
                # by the first N_form terms or, when k = p = N_form, by
                # matching the form's H on it
                assert not tf_equivalent(ss, form)
                assert not tf_equivalent(form, ss)

    def test_zero_transfer_function(self, h_terms_drawn):
        # p = 0: pi = 1 annihilates B = 0 before any term; with B != 0 the
        # first N terms decide
        zero_h = ratmat_reduce(PolyMatrix.zero(2, 1), Poly.one())
        a = [[1, 2], [Fraction(-1, 3), 4]]
        no_input = StateSpaceModel(a=a, b=[[0], [0]], c=[[1, 0], [0, 1]])
        no_output = StateSpaceModel(a=a, b=[[1], [1]], c=[[0, 0], [0, 0]])
        live = StateSpaceModel(a=a, b=[[0], [1]], c=[[1, 0], [0, 0]])
        assert tf_match(no_input, zero_h)
        assert tf_match(no_output, zero_h)
        assert not tf_match(live, zero_h)
        assert h_terms_drawn == [0, 2, 2]


# ---------------------------------------------------------------------------
# Refusals the tests above do not reach
# ---------------------------------------------------------------------------

def spec(p=1, q=0, d=1, m=1, a_coeffs=([[1]],), b_coeffs=([[1]],)):
    return McarmaSpec(p=p, q=q, d=d, m=m, a_coeffs=a_coeffs, b_coeffs=b_coeffs)


Z_PLUS_1 = PolyMatrix.from_rows([[Poly((1, 1))]])
REFUSALS = {
    "a-not-square": (
        lambda: StateSpaceModel(a=[[1, 2]], b=[[1]], c=[[1, 1]]),
        DimensionMismatch, "A must be square"),
    "c-columns": (
        lambda: StateSpaceModel(a=[[1]], b=[[1]], c=[[1, 2]]),
        DimensionMismatch, "C must have as many columns as A"),
    "order-zero": (lambda: spec(p=0, a_coeffs=()), ValueError,
                   "order p must be at least 1"),
    "no-outputs": (lambda: spec(d=0), DimensionMismatch,
                   "dimensions must be positive"),
    "ar-count": (lambda: spec(p=2), DimensionMismatch,
                 "expected 2 autoregressive coefficients"),
    "zero-ma-with-blocks": (lambda: spec(q=None), ValueError,
                            "admits no B coefficients"),
    "ma-count": (lambda: spec(p=2, q=1, a_coeffs=([[1]], [[1]])),
                 DimensionMismatch, "expected 2 moving-average coefficients"),
    "ma-shape": (lambda: spec(b_coeffs=([[1, 2]],)), DimensionMismatch,
                 "moving-average coefficients must be dxm"),
    "beta-count": (
        lambda: McarmaSpec.from_beta(([[1]],), ([[1]], [[0]]), d=1, m=1),
        DimensionMismatch, "expected 1 stacked input blocks"),
    "fraction-side": (lambda: MfdPair("top", Z_PLUS_1, Z_PLUS_1), ValueError,
                      "side must be 'left' or 'right'"),
    "fraction-den-not-square": (
        lambda: MfdPair("left", PolyMatrix.from_rows([[Poly((1, 1)), Poly.one()]]),
                        Z_PLUS_1),
        DimensionMismatch, "denominator of a matrix fraction must be square"),
    "fraction-not-strictly-proper": (
        lambda: MfdPair("left", Z_PLUS_1, Z_PLUS_1), NotStrictlyProper,
        "numerator degree must be below denominator degree"),
    "unknown-canonical-form": (
        lambda: cli.report_canonical("diagonal", transfer_function(
            StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]]))),
        ValueError, "unknown canonical form: 'diagonal'"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(),
                         ids=list(REFUSALS))
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_tf_match_refuses_a_shape_mismatch():
    h = transfer_function(StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]]))
    two_outputs = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1], [1]])
    two_inputs = StateSpaceModel(a=[[-1]], b=[[1, 1]], c=[[1]])
    assert not tf_match(two_outputs, h)
    assert not tf_match(two_inputs, h)


# ---------------------------------------------------------------------------
# Value semantics of the exact layer's eight value classes
# ---------------------------------------------------------------------------

def _ss_half():
    return StateSpaceModel(a=[[-3]], b=[[1]], c=[["1/2"]])


def _spec_2_0():
    return McarmaSpec(p=1, q=0, d=1, m=1, a_coeffs=[[[3]]], b_coeffs=[[[2]]])


# each class: a builder of one value (a fresh object per call), its compared
# fields in order, and its repr as the frozen dataclasses printed it
VALUES = {
    "Poly": (lambda: Poly((1, "1/2", 0)), ("coeffs",),
             "Poly(coeffs=(Fraction(1, 1), Fraction(1, 2)))"),
    "Poly-zero": (Poly, ("coeffs",), "Poly(coeffs=())"),
    "PolyMatrix": (
        lambda: PolyMatrix(1, 2, [Poly((1,)), Poly(())]),
        ("rows", "cols", "entries"),
        "PolyMatrix(rows=1, cols=2, entries=(Poly(coeffs=(Fraction(1, 1),)), "
        "Poly(coeffs=())))"),
    "RationalFunction": (
        lambda: RationalFunction(Poly((2, 2)), Poly((2, 4, 2))), ("num", "den"),
        "RationalFunction(num=Poly(coeffs=(Fraction(1, 1),)), "
        "den=Poly(coeffs=(Fraction(1, 1), Fraction(1, 1))))"),
    "RationalMatrix": (
        lambda: RationalMatrix(PolyMatrix(1, 1, (Poly((3,)),)), Poly((6, 2))),
        ("common_num", "common_den"),
        "RationalMatrix(common_num=PolyMatrix(rows=1, cols=1, "
        "entries=(Poly(coeffs=(Fraction(3, 2),)),)), "
        "common_den=Poly(coeffs=(Fraction(3, 1), Fraction(1, 1))))"),
    "StateSpaceModel": (
        _ss_half, ("a", "b", "c"),
        "StateSpaceModel(a=((Fraction(-3, 1),),), b=((Fraction(1, 1),),), "
        "c=((Fraction(1, 2),),))"),
    "McarmaSpec": (
        _spec_2_0, ("p", "q", "d", "m", "a_coeffs", "b_coeffs"),
        "McarmaSpec(p=1, q=0, d=1, m=1, a_coeffs=(((Fraction(3, 1),),),), "
        "b_coeffs=(((Fraction(2, 1),),),), beta=(((Fraction(2, 1),),),))"),
    "McarmaSpec-zero-q": (
        lambda: McarmaSpec(p=1, q=None, d=1, m=1, a_coeffs=[[[3]]], b_coeffs=()),
        ("p", "q", "d", "m", "a_coeffs", "b_coeffs"),
        "McarmaSpec(p=1, q=None, d=1, m=1, a_coeffs=(((Fraction(3, 1),),),), "
        "b_coeffs=(), beta=(((Fraction(0, 1),),),))"),
    "MfdPair": (
        lambda: _spec_2_0().fraction(), ("side", "den", "num"),
        "MfdPair(side='left', den=PolyMatrix(rows=1, cols=1, "
        "entries=(Poly(coeffs=(Fraction(3, 1), Fraction(1, 1))),)), "
        "num=PolyMatrix(rows=1, cols=1, "
        "entries=(Poly(coeffs=(Fraction(2, 1),)),)))"),
    "CanonicalRealization": (
        lambda: observer_realization(transfer_function(_ss_half()))[0],
        ("statespace", "fraction"),
        "CanonicalRealization(statespace=StateSpaceModel("
        "a=((Fraction(-3, 1),),), b=((Fraction(1, 2),),), "
        "c=((Fraction(1, 1),),)), fraction=MfdPair(side='left', "
        "den=PolyMatrix(rows=1, cols=1, "
        "entries=(Poly(coeffs=(Fraction(3, 1), Fraction(1, 1))),)), "
        "num=PolyMatrix(rows=1, cols=1, "
        "entries=(Poly(coeffs=(Fraction(1, 2),)),))))"),
}


class TestValueClasses:

    @pytest.mark.parametrize("name", VALUES)
    def test_repr(self, name):
        build, _, expected = VALUES[name]
        assert repr(build()) == expected

    @pytest.mark.parametrize("name", VALUES)
    def test_eq_and_hash_over_the_compared_fields(self, name):
        build, fields, _ = VALUES[name]
        x, y = build(), build()
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in fields))
        assert x.__eq__(tuple(getattr(x, f) for f in fields)) is NotImplemented
        assert x != object()

    def test_distinct_values_differ(self):
        values = [build() for build, _, _ in VALUES.values()]
        assert all((x == y) == (i == j) for i, x in enumerate(values)
                   for j, y in enumerate(values))
        assert Poly((1,)) != Poly((2,))
        assert PolyMatrix(1, 2, [Poly(), Poly()]) != PolyMatrix(2, 1, [Poly(), Poly()])
        assert _ss_half() != StateSpaceModel(a=[[-3]], b=[[1]], c=[[1]])

    @pytest.mark.parametrize("name", VALUES)
    def test_frozen(self, name):
        build, fields, _ = VALUES[name]
        x = build()
        for field in (*fields, "other"):
            with pytest.raises(FrozenInstanceError,
                               match=f"cannot assign to field '{field}'"):
                setattr(x, field, None)
            with pytest.raises(FrozenInstanceError,
                               match=f"cannot delete field '{field}'"):
                delattr(x, field)
        assert x == build()

    def test_beta_is_shown_but_not_compared(self):
        spec, other = _spec_2_0(), _spec_2_0()
        object.__setattr__(other, "beta", ())
        assert "beta=()" in repr(other)
        assert spec == other and hash(spec) == hash(other)
        with pytest.raises(TypeError):
            McarmaSpec(p=1, q=0, d=1, m=1, a_coeffs=[[[3]]], b_coeffs=[[[2]]],
                       beta=spec.beta)
