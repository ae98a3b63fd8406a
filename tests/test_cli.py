"""End-to-end checks of the command-line surface.

Commands run in process through ``cli.main``, so normal exit codes are the
return value; argparse usage failures surface as ``SystemExit`` with code 2.
Model files are written to pytest temp dirs and reports are parsed back from
captured stdout.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carmakit import cli, simulate
from carmakit.exactalg import (
    Poly,
    PolyMatrix,
    RationalFunction,
    RationalMatrix,
    as_rational,
    format_rational,
    ratmat_equal,
)
from carmakit.realization import (
    StateSpaceModel,
    controller_realization,
    observer_realization,
    transfer_function,
)


def fmt_rows(rows):
    return [[format_rational(as_rational(v)) for v in row] for row in rows]


def ss_obj(a, b, c):
    return {"kind": "statespace", "A": fmt_rows(a), "B": fmt_rows(b),
            "C": fmt_rows(c)}


def mcarma_obj(p, q, d, m, a_coeffs, b_coeffs):
    return {"kind": "mcarma", "p": p, "q": q, "d": d, "m": m,
            "A_coeffs": [fmt_rows(ai) for ai in a_coeffs],
            "B_coeffs": [fmt_rows(bj) for bj in b_coeffs]}


def write_model(path, obj):
    """Write ``obj`` as JSON, or ``bytes`` as they are."""
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


OU = ss_obj([[-3]], [[1]], [[5]])  # H(z) = 5/(z+3)
UNSTABLE = ss_obj([[3]], [[1]], [[1]])  # e^{3t} overflows a double by t=237
UNSTABLE_ERROR = "error: sample path overflows: first non-finite output at t=237\n"
# Stable (eigenvalue -1e-5, twice), but so non-normal that the Lyapunov solve
# of its stationary covariance misses the residual tolerance.
ILL_CONDITIONED = ss_obj([["-1/100000", 100000000], [0, "-1/100000"]],
                         [[0], [1]], [[1, 0]])
HUGE = ss_obj([[-1]], [[1]], [[10**400]])  # 10^400 exceeds every double
# eigenvalues -1.61, -2.62, -4.27
STABLE_3X3 = ss_obj([[-3, 0, "2/3"], [2, "-3/2", "-2/3"], ["-2/3", -1, -4]],
                    [["-1/2", 0], [0, -2], ["3/2", -1]],
                    [["-1/3", 0, "-3/2"], ["-3/2", "-1/3", "-1/2"]])
TWO_INPUTS = ss_obj([[-1, 0], [0, -2]], [[1, 0], [0, 1]], [[1, 1]])
# det(zI - A) = (z - N)^2 - 1, N of 3000 nines, has a coefficient of about
# 6000 digits
TOO_LONG = ss_obj([["9" * 3000, 1], [1, "9" * 3000]], [[1], [0]], [[1, 0]])
# one state with 1,000 and with 300 outputs
WIDE_1000, WIDE_300 = (ss_obj([[-1]], [[1]], [[k] for k in range(1, d + 1)])
                       for d in (1000, 300))
# Files the JSON reader cannot take: nesting past the recursion limit, bytes
# that are not UTF-8, and an integer literal past the interpreter's limit of
# digits for integer conversion.
NESTED = "[" * 100000 + "]" * 100000
NOT_UTF8 = b"\xff\xfe{}"
UNREADABLE_JSON = {"nested": NESTED.encode(), "not-utf8": NOT_UTF8,
                   "long-integer": b"[" + b"9" * 5000 + b"]"}


def rand_frac(rng, num=6, den=4):
    return Fraction(int(rng.integers(-num, num + 1)),
                    int(rng.integers(1, den + 1)))


def rand_rows(rng, r, c):
    return [[rand_frac(rng) for _ in range(c)] for _ in range(r)]


def random_model_obj(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    d = int(rng.integers(1, 3))
    while True:
        obj = ss_obj(rand_rows(rng, n, n), rand_rows(rng, n, m),
                     rand_rows(rng, d, n))
        ss = StateSpaceModel(
            a=tuple(tuple(as_rational(v) for v in row) for row in obj["A"]),
            b=tuple(tuple(as_rational(v) for v in row) for row in obj["B"]),
            c=tuple(tuple(as_rational(v) for v in row) for row in obj["C"]))
        if not transfer_function(ss).is_zero:
            return obj, ss


class TestModelFiles:

    def test_statespace_parses_exactly(self, tmp_path):
        path = write_model(tmp_path / "m.json",
                           ss_obj([["-1/2"]], [["2/3"]], [["7"]]))
        model = cli.load_model(path)
        assert isinstance(model, StateSpaceModel)
        assert model.a == ((Fraction(-1, 2),),)
        assert model.b == ((Fraction(2, 3),),)
        assert model.c == ((Fraction(7),),)

    def test_mcarma_parses_and_derives_input_blocks(self, tmp_path):
        obj = mcarma_obj(2, 1, 1, 1, [[[3]], [[2]]], [[[1]], [[3]]])
        model = cli.load_model(write_model(tmp_path / "m.json", obj))
        # the observer form: block companion A, the stacked beta blocks as B
        assert model == StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[1], [0]],
                                        c=[[1, 0]])

    def test_integer_entries_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"kind": "statespace", "A": [[-3]], "B": [[1]], "C": [[5]]}))
        model = cli.load_model(str(path))
        assert model.a == ((Fraction(-3),),)

    @pytest.mark.parametrize("role", ["model", "sigma", "atoms"])
    @pytest.mark.parametrize("content", UNREADABLE_JSON.values(),
                             ids=UNREADABLE_JSON)
    def test_unreadable_json_exit_2(self, tmp_path, capsys, role, content):
        model = write_model(tmp_path / "ou.json", OU)
        broken = tmp_path / "broken.json"
        broken.write_bytes(content)
        grid = ["--seed", "1", "--steps", "3", "--h", "0.1",
                "-o", str(tmp_path / "x.csv")]
        argv = {"model": ["tf", str(broken)],
                "sigma": ["simulate", model, "--driver", "brownian",
                          "--sigma", str(broken), *grid],
                "atoms": ["simulate", model, "--driver", "cp", "--rate", "1",
                          "--jump", f"atoms:{broken}", *grid]}[role]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {broken} is not valid JSON: ")
        assert len(err.splitlines()) == 1


class TestTfCommand:

    def test_scalar_report(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        code, out = run(capsys, "tf", path)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "transfer_function"
        assert report["entries"] == [[{"num": ["5"], "den": ["3", "1"]}]]
        assert report["common_den"] == ["3", "1"]

    def test_mcarma_routes_to_fraction_of_polynomials(self, tmp_path, capsys):
        # Scalar-identity autoregressive coefficients: every entry of H must
        # equal N_ij(z) / d(z) with d built directly from the file, no
        # resolvent involved on the oracle side.
        rng = np.random.default_rng(20)
        for trial in range(8):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(0, p))
            d, m = 2, int(rng.integers(1, 3))
            a_scalars = [rand_frac(rng) for _ in range(p)]
            a_coeffs = [[[ai if r == c else 0 for c in range(d)]
                         for r in range(d)] for ai in a_scalars]
            b_coeffs = [rand_rows(rng, d, m) for _ in range(q + 1)]
            b_coeffs[0][0][0] = Fraction(1)  # keep B_0 nonzero
            obj = mcarma_obj(p, q, d, m, a_coeffs, b_coeffs)
            path = write_model(tmp_path / f"m{trial}.json", obj)
            code, out = run(capsys, "tf", path)
            assert code == 0
            den = Poly([a_scalars[p - 1 - k] for k in range(p)] + [Fraction(1)])
            oracle = RationalMatrix.from_rows([
                [RationalFunction(
                    Poly([b_coeffs[q - k][i][j] for k in range(q + 1)]), den)
                 for j in range(m)] for i in range(d)])
            assert json.loads(out) == cli.report_tf(oracle)

    def test_full_matrix_mcarma_matches_cofactor_oracle(self, tmp_path, capsys):
        # d=2 full-matrix autoregressive part: oracle inverts P(z) by the 2x2
        # cofactor formula and multiplies by N(z) entrywise.
        rng = np.random.default_rng(21)
        for trial in range(5):
            a1, a2 = rand_rows(rng, 2, 2), rand_rows(rng, 2, 2)
            b0, b1 = rand_rows(rng, 2, 1), rand_rows(rng, 2, 1)
            b0[0][0] = Fraction(1)
            obj = mcarma_obj(2, 1, 2, 1, [a1, a2], [b0, b1])
            path = write_model(tmp_path / f"fm{trial}.json", obj)
            code, out = run(capsys, "tf", path)
            assert code == 0
            pm = [[Poly([a2[i][j], a1[i][j],
                         Fraction(1) if i == j else Fraction(0)])
                   for j in range(2)] for i in range(2)]
            nv = [Poly([b1[i][0], b0[i][0]]) for i in range(2)]
            det = pm[0][0] * pm[1][1] - pm[0][1] * pm[1][0]
            adj = [[pm[1][1], -pm[0][1]], [-pm[1][0], pm[0][0]]]
            oracle = RationalMatrix.from_rows([
                [RationalFunction(adj[i][0] * nv[0] + adj[i][1] * nv[1], det)]
                for i in range(2)])
            assert json.loads(out) == cli.report_tf(oracle)

    def test_zero_transfer_function_still_reports(self, tmp_path, capsys):
        obj = mcarma_obj(1, 0, 1, 1, [[[1]]], [[[0]]])
        code, out = run(capsys, "tf", write_model(tmp_path / "z.json", obj))
        assert code == 0
        assert json.loads(out)["entries"] == [[{"num": [], "den": ["1"]}]]

    @pytest.mark.parametrize("command", [["tf"],
                                         ["canonical", "--form", "observer"],
                                         ["canonical", "--form", "controller"]],
                             ids=["tf", "observer", "controller"])
    def test_result_too_long_to_print_exit_2(self, tmp_path, capsys, command):
        path = write_model(tmp_path / "m.json", TOO_LONG)
        limit = sys.get_int_max_str_digits()
        out_path = tmp_path / "report.json"
        code = cli.main([command[0], path, *command[1:], "-o", str(out_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == (f"error: exact result has more than {limit} digits, "
                       "the limit for integer string conversion\n")
        assert out == "" and not out_path.exists()
        assert sys.get_int_max_str_digits() == limit

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "tf", path, "-o", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == out


class TestCanonicalCommand:

    def test_observer_of_mcarma_round_trips(self, tmp_path, capsys):
        obj = mcarma_obj(3, 1, 2, 2,
                         [rand_rows(np.random.default_rng(5), 2, 2)
                          for _ in range(3)],
                         [[[1, 0], [0, 1]], [[2, 0], [0, 3]]])
        # Observer reconstruction only sees H, so scalar-identity A_i are
        # required for the coefficients to survive the round trip.
        rng = np.random.default_rng(6)
        scalars = [rand_frac(rng) for _ in range(3)]
        obj["A_coeffs"] = [fmt_rows([[ai if r == c else 0 for c in range(2)]
                                     for r in range(2)]) for ai in scalars]
        path = write_model(tmp_path / "m.json", obj)
        code, out = run(capsys, "canonical", path, "--form", "observer")
        assert code == 0
        report = json.loads(out)
        assert report["tf_match"] is True
        assert report["p"] == 3 and report["q"] == 1
        assert report["ar_coeffs"] == obj["A_coeffs"]
        assert report["ma_coeffs"] == obj["B_coeffs"]

    def test_tf_match_true_both_forms(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        for trial in range(6):
            obj, _ = random_model_obj(rng)
            path = write_model(tmp_path / f"m{trial}.json", obj)
            for form in ("observer", "controller"):
                code, out = run(capsys, "canonical", path, "--form", form)
                assert code == 0
                report = json.loads(out)
                assert report["tf_match"] is True
                assert report["form"] == form

    def test_scalar_first_order_fractions_coincide(self, tmp_path, capsys):
        # For a 1x1 model both matrix fractions are the same scalar fraction;
        # only the side label and the B/C placement differ.
        path = write_model(tmp_path / "ou.json", OU)
        _, obs_out = run(capsys, "canonical", path, "--form", "observer")
        _, ctrl_out = run(capsys, "canonical", path, "--form", "controller")
        obs, ctrl = json.loads(obs_out), json.loads(ctrl_out)
        assert obs["mfd"]["den"] == ctrl["mfd"]["den"]
        assert obs["mfd"]["num"] == ctrl["mfd"]["num"]
        assert obs["mfd"]["p"] == ctrl["mfd"]["p"]
        assert obs["statespace"]["A"] == ctrl["statespace"]["A"]
        assert obs["statespace"]["B"] == ctrl["statespace"]["C"]
        assert obs["statespace"]["C"] == ctrl["statespace"]["B"]


@st.composite
def wide_gap_transfer_functions(draw):
    """Nonzero strictly proper H = N(z) / pi(z) with d != m and deg N <=
    deg pi - 2: pi monic of degree 2..4 with rational coefficients, one
    drawn entry of N with a nonzero top coefficient.  Reduction removes the
    same degree from N and pi, so the gap survives it."""
    p = draw(st.integers(2, 4))
    q = draw(st.integers(0, p - 2))
    d, m = draw(st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]))
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    pi = Poly((*draw(st.lists(fractions, min_size=p, max_size=p)), 1))
    entries = [draw(st.lists(fractions, min_size=q + 1, max_size=q + 1))
               for _ in range(d * m)]
    entries[draw(st.integers(0, d * m - 1))][q] = draw(
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 6)))
    return RationalMatrix(PolyMatrix(d, m, tuple(map(Poly, entries))), pi)


def reference_canonical_report(form: str, h) -> dict:
    """What ``cli.report_canonical`` returns, built with no kept view: every
    block entry formatted on its own from ``coefficient_matrix``, every
    polynomial from its coefficients, every model entry from its row."""
    realize = observer_realization if form == "observer" else controller_realization
    real, mfd = realize(h)
    ss, p, q = real.statespace, mfd.p, mfd.q
    rows = lambda mat: [[format_rational(x) for x in row] for row in mat]
    polys = lambda pm: [[[format_rational(c) for c in pm[i, j].coeffs]
                         for j in range(pm.cols)] for i in range(pm.rows)]
    num = [rows(mfd.num.coefficient_matrix(k)) for k in range(p)]
    report = {
        "kind": "canonical_form", "form": form, "p": p,
        "ar_coeffs": [rows(mfd.den.coefficient_matrix(p - i)) for i in range(1, p + 1)],
        "statespace": {"kind": "statespace", "A": rows(ss.a), "B": rows(ss.b),
                       "C": rows(ss.c)},
        "mfd": {"side": mfd.side, "p": p, "q": q, "den": polys(mfd.den),
                "num": polys(mfd.num)},
        "tf_match": True,
    }
    if form == "observer":
        b = rows(ss.b)
        report.update(q=q, ma_coeffs=num[q::-1],
                      input_blocks=[b[k * h.rows:(k + 1) * h.rows] for k in range(p)])
    else:
        report.update(q_tilde=q, num_coeffs_descending=num[q::-1], num_coeffs=num)
    return report


class TestReportsReadKeptLiterals:
    @given(wide_gap_transfer_functions())
    @settings(max_examples=60, deadline=None)
    def test_canonical_reports_equal_entrywise_formatting(self, h):
        assert h.rows != h.cols and h.common_num.degree < h.common_den.degree - 1
        # both reports of one H, as the CLI and the benchmark make them, share
        # the literals and scales kept on its polynomials
        reports = {form: cli.report_canonical(form, h)
                   for form in ("observer", "controller")}
        for form, report in reports.items():
            reference = reference_canonical_report(form, h)
            assert report == reference
            assert cli.canonical_dumps(report) == cli.canonical_dumps(reference)
        coeffs = lambda poly: [format_rational(c) for c in poly.coeffs]
        assert cli.report_tf(h) == {
            "kind": "transfer_function", "outputs": h.rows, "inputs": h.cols,
            "common_den": coeffs(h.common_den),
            "entries": [[{"num": coeffs(h[i, j].num), "den": coeffs(h[i, j].den)}
                         for j in range(h.cols)] for i in range(h.rows)]}


class TestCheckEquiv:

    def test_model_vs_own_observer_form(self, tmp_path, capsys):
        model_path = write_model(tmp_path / "ou.json", OU)
        _, obs_out = run(capsys, "canonical", model_path, "--form", "observer")
        obs_path = write_model(tmp_path / "obs.json",
                               json.loads(obs_out)["statespace"])
        report_path = tmp_path / "verdict.json"
        code, out = run(capsys, "check-equiv", model_path, obs_path,
                        "--simulate", "cp", "--rate", "2", "--seed", "11",
                        "--steps", "500", "--h", "0.05",
                        "-o", str(report_path))
        assert code == 0
        assert out.splitlines()[0] == "EQUIVALENT"
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "EQUIVALENT"
        assert report["relative_gap"] <= 1e-8

    def test_self_comparison_gap_exactly_zero(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        report_path = tmp_path / "verdict.json"
        code, out = run(capsys, "check-equiv", path, path,
                        "--simulate", "cp", "--seed", "3", "--steps", "200",
                        "--h", "0.1", "-o", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["sup_norm_gap"] == 0.0

    def test_c_scaled_model_distinct(self, tmp_path, capsys):
        path1 = write_model(tmp_path / "m1.json", OU)
        path2 = write_model(tmp_path / "m2.json",
                            ss_obj([[-3]], [[1]], [[10]]))
        code, out = run(capsys, "check-equiv", path1, path2)
        assert code == 1
        assert out.splitlines()[0] == "DISTINCT"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_model_2_exit_2_for_every_seed(self, tmp_path, capsys):
        # at rate 0.002 over 299 time units, a few seeds draw a jump early
        # enough for model 1's path to overflow; model 2's entry is refused
        # before the draw, so no seed reaches it
        unstable = write_model(tmp_path / "unstable.json", UNSTABLE)
        huge = write_model(tmp_path / "huge.json", HUGE)
        for seed in range(12):
            code = cli.main(["check-equiv", unstable, huge, "--simulate", "cp",
                             "--rate", "0.002", "--steps", "300", "--h", "1",
                             "--seed", str(seed)])
            err = capsys.readouterr().err
            assert code == 2, seed
            assert err.startswith("error: model entry"), (seed, err)
            assert len(err.splitlines()) == 1, (seed, err)


class TestSimulateCommand:

    def test_seed_repetition_identical_hash(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        digests = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            code, _ = run(capsys, "simulate", path, "--driver", "brownian",
                          "--seed", "42", "--steps", "500", "--h", "0.1",
                          "-o", str(out_path))
            assert code == 0
            digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        out_path = tmp_path / "c.csv"
        run(capsys, "simulate", path, "--driver", "brownian", "--seed", "43",
            "--steps", "500", "--h", "0.1", "-o", str(out_path))
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() != digests[0]

    def test_zero_noise_zero_path(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text("[[0.0]]")
        out_path = tmp_path / "zero.csv"
        code, _ = run(capsys, "simulate", path, "--driver", "brownian",
                      "--sigma", str(sigma_path), "--seed", "1",
                      "--steps", "50", "--h", "0.1", "-o", str(out_path))
        assert code == 0
        data = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert np.all(data[:, 1] == 0.0)

    def test_scalar_ou_variance(self, tmp_path, capsys):
        # Stationary variance of Y = 5 X with dX = -3X dt + dW is 25/6.
        path = write_model(tmp_path / "ou.json", OU)
        out_path = tmp_path / "ou.csv"
        code, _ = run(capsys, "simulate", path, "--driver", "brownian",
                      "--seed", "3", "--steps", "20000", "--h", "0.1",
                      "--init", "stationary", "-o", str(out_path))
        assert code == 0
        y = np.loadtxt(out_path, delimiter=",", skiprows=1)[:, 1]
        assert abs(np.var(y) - 25 / 6) <= 0.10 * 25 / 6

    def test_atoms_driver_and_sidecar(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        atoms_path = tmp_path / "atoms.json"
        atoms_path.write_text(json.dumps(
            {"atoms": [[2.0]], "probabilities": [1.0]}))
        out_path = tmp_path / "cp.csv"
        code, out = run(capsys, "simulate", path, "--driver", "cp",
                        "--rate", "4", "--jump", f"atoms:{atoms_path}",
                        "--seed", "9", "--steps", "40", "--h", "0.25",
                        "-o", str(out_path))
        assert code == 0
        assert out.strip() == str(out_path)
        meta_text = (tmp_path / "cp.csv.meta.json").read_text()
        meta = json.loads(meta_text)
        assert meta["driver"]["jump"] == {"kind": "atoms", "atoms": [[2.0]],
                                          "probabilities": [1.0]}
        assert cli.canonical_dumps(meta) == meta_text

    def test_gaussian_driver_sidecar(self, tmp_path, capsys):
        path = write_model(tmp_path / "two.json", TWO_INPUTS)
        out_path = tmp_path / "cp.csv"
        code, _ = run(capsys, "simulate", path, "--driver", "cp", "--rate", "4",
                      "--seed", "9", "--steps", "40", "--h", "0.25",
                      "-o", str(out_path))
        assert code == 0
        meta = json.loads((tmp_path / "cp.csv.meta.json").read_text())
        assert meta["driver"]["jump"] == {"kind": "gaussian", "mean": [0.0, 0.0],
                                          "cov": [[1.0, 0.0], [0.0, 1.0]]}

    @pytest.mark.parametrize("atoms", [
        {"atoms": [[[1]], [[2]]], "probabilities": [0.5, 0.5]},
        {"atoms": [], "probabilities": []},
        {"atoms": [1, 2], "probabilities": [0.5, 0.5]},
        {"atoms": [["1"], [True]], "probabilities": ["0.5", 0.5]},
    ], ids=["rank-3", "empty", "flat", "string-and-boolean"])
    def test_malformed_atom_file_exit_2(self, tmp_path, capsys, atoms):
        # Two states and one input: rank-3 atoms of length 1 fit the input
        # but not the state update, and this seed draws jumps.
        path = write_model(tmp_path / "m.json",
                           ss_obj([[-1, 0], [0, -2]], [[1], [1]], [[1, 1]]))
        atoms_path = tmp_path / "atoms.json"
        atoms_path.write_text(json.dumps(atoms))
        out_path = tmp_path / "x.csv"
        code = cli.main(["simulate", path, "--driver", "cp", "--rate", "4",
                         "--jump", f"atoms:{atoms_path}", "--seed", "9",
                         "--steps", "40", "--h", "0.25", "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {atoms_path}: bad atom file: ")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["simulate", "spectrum"])
    @pytest.mark.parametrize("sigma", ['[["2"]]', "[[true]]"],
                             ids=["string", "boolean"])
    def test_non_number_sigma_exit_2(self, tmp_path, capsys, command, sigma):
        path = write_model(tmp_path / "ou.json", OU)
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(sigma)
        out_path = tmp_path / "x.csv"
        flags = (["--driver", "brownian", "--seed", "1", "--steps", "10",
                  "--h", "0.1"] if command == "simulate"
                 else ["--omegas", "0,1"])
        code = cli.main([command, path, "--sigma", str(sigma_path), *flags,
                         "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        entry = json.loads(sigma)[0][0]
        assert err == (f"error: {sigma_path}: covariance must hold JSON "
                       f"numbers, got {entry!r}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["simulate", "spectrum"])
    @pytest.mark.parametrize("sigma", ["[[1.0, 0.0], [0.0, -1.0]]",
                                       "[[1.0, 0.5], [0.0, 1.0]]",
                                       "[[NaN, 0.0], [0.0, 1.0]]",
                                       f"[[{10**400}, 0], [0, 1]]",
                                       "[[1.7e308, 0], [0, -1.7e308]]"],
                             ids=["not-psd", "asymmetric", "nan", "huge",
                                  "huge-not-psd"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_sigma_values_exit_2(self, tmp_path, capsys, command, sigma):
        path = write_model(tmp_path / "m.json", TWO_INPUTS)
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(sigma)
        out_path = tmp_path / "x.csv"
        flags = (["--driver", "brownian", "--seed", "1", "--steps", "10",
                  "--h", "0.1"] if command == "simulate"
                 else ["--omegas", "0,1"])
        code = cli.main([command, path, "--sigma", str(sigma_path), *flags,
                         "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["simulate", "spectrum"])
    def test_bad_sigma_names_file(self, tmp_path, capsys, command):
        # one check of the covariance, its refusal prefixed by the file name
        path = write_model(tmp_path / "ou.json", OU)
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text("[[-1.0]]")
        out_path = tmp_path / "x.csv"
        flags = {"simulate": ["--driver", "brownian", "--seed", "1",
                              "--steps", "10", "--h", "0.1", "-o", str(out_path)],
                 "spectrum": ["--omegas", "0", "-o", str(out_path)]}[command]
        code = cli.main([command, path, "--sigma", str(sigma_path), *flags])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {sigma_path}: driver covariance must be positive "
            "semidefinite\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("driver", [["brownian"], ["cp", "--rate", "1"]])
    def test_path_cap_exit_2(self, tmp_path, capsys, monkeypatch, driver):
        monkeypatch.setattr(simulate, "MAX_PATH_VALUES", 1000)
        monkeypatch.setattr(simulate, "_record_path", None)  # never reached
        path = write_model(tmp_path / "ou.json", OU)
        out_path = tmp_path / "x.csv"
        code = cli.main(["simulate", path, "--driver", *driver, "--seed", "1",
                         "--steps", "2000", "--h", "0.1", "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: path needs 2000 values in one array, "
                       "more than MAX_PATH_VALUES = 1000\n")
        assert not out_path.exists()

    def test_cp_path_cap_checked_before_draws(self, tmp_path, capsys,
                                              monkeypatch):
        def no_draws(cfg):
            raise AssertionError("jumps drawn for a refused path")

        monkeypatch.setattr(simulate, "MAX_PATH_VALUES", 1000)
        monkeypatch.setattr(simulate.SimulationConfig, "streams", no_draws)
        path = write_model(tmp_path / "ou.json", OU)
        out_path = tmp_path / "x.csv"
        code = cli.main(["simulate", path, "--driver", "cp", "--rate", "1",
                         "--seed", "1", "--steps", "2000", "--h", "0.1",
                         "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out_path.exists()

    @pytest.mark.parametrize("rate", ["0.01", "100"])
    def test_atom_dimension_checked_before_draws(self, tmp_path, capsys, rate):
        # At rate 0.01 this seed draws no jump at all, so only a check made
        # before the draws can see that the atoms do not fit the model.
        path = write_model(tmp_path / "m.json", TWO_INPUTS)
        atoms_path = tmp_path / "atoms.json"
        atoms_path.write_text(json.dumps(
            {"atoms": [[1.0, 2.0, 3.0]], "probabilities": [1.0]}))
        out_path = tmp_path / "x.csv"
        code, _ = run(capsys, "simulate", path, "--driver", "cp",
                      "--rate", rate, "--jump", f"atoms:{atoms_path}",
                      "--seed", "1", "--steps", "10", "--h", "0.1",
                      "-o", str(out_path))
        assert code == 3
        assert not out_path.exists()


class TestOutOfRange:

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_covariance_small_step_runs(self, tmp_path, capsys):
        # the one-step covariance at h = 0.1 stays inside the double range
        path = write_model(tmp_path / "m.json", ss_obj([[-1]], [[1]], [[1]]))
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text("[[1.7e308]]")
        out_path = tmp_path / "x.csv"
        code, _ = run(capsys, "simulate", path, "--sigma", str(sigma_path),
                      "--driver", "brownian", "--h", "0.1", "--seed", "0",
                      "--steps", "10", "-o", str(out_path))
        assert code == 0
        assert np.all(np.isfinite(np.loadtxt(out_path, delimiter=",", skiprows=1)))


class TestSpectrumCommand:

    def test_spectrum_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # 60 * 2 * 300^2 = 1.08e7 floats of densities, refused before the first
        monkeypatch.setattr(simulate, "spectral_density", None)  # never reached
        path = write_model(tmp_path / "wide.json", WIDE_300)
        out_path = tmp_path / "s.csv"
        code = cli.main(["spectrum", path, "--omegas",
                         ",".join(str(w) for w in range(60)),
                         "-o", str(out_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: path needs 10800000 values in one array, "
            f"more than MAX_PATH_VALUES = {simulate.MAX_PATH_VALUES}\n")
        assert not out_path.exists()

    def test_sigma_checked_once(self, tmp_path, capsys, monkeypatch):
        # _load_sigma checks the file's sigma, and no frequency checks it
        # again; the rows are those of the public spectral_density
        calls = []

        def counted(*args, inner=simulate._driver_covariance):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(simulate, "_driver_covariance", counted)
        obj = ss_obj([[-1, 2], [0, -3]], [[1, 0], [1, 1]], [[1, 0], [0, 1]])
        path = write_model(tmp_path / "m.json", obj)
        sigma = [[2.0, 0.5], [0.5, 1.0]]
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps(sigma))
        out_path = tmp_path / "spec.csv"
        omegas = [0.0, 0.3, 1.7, 4.0]
        code, _ = run(capsys, "spectrum", path, "--sigma", str(sigma_path),
                      "--omegas", ",".join(map(str, omegas)), "-o", str(out_path))
        assert code == 0
        assert len(calls) == 1
        h = transfer_function(cli.load_model(path))
        expected = np.array([simulate.spectral_density(h, sigma, w).ravel()
                             for w in omegas]).view(float)
        np.testing.assert_array_equal(
            np.loadtxt(out_path, delimiter=",", skiprows=1),
            np.column_stack([omegas, expected]))

    def test_scalar_closed_form(self, tmp_path, capsys):
        path = write_model(tmp_path / "ou.json", OU)
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", path, "--omegas", "0,0.5,1",
                      "-o", str(out_path))
        assert code == 0
        data = np.loadtxt(out_path, delimiter=",", skiprows=1)
        for omega, re, im in data:
            assert abs(re - 25 / ((9 + omega ** 2) * 2 * math.pi)) < 1e-12
            assert im == 0.0

    def test_rows_hermitian(self, tmp_path, capsys):
        obj = ss_obj([[-1, 2], [0, -3]], [[1, 0], [1, 1]], [[1, 0], [0, 1]])
        path = write_model(tmp_path / "m.json", obj)
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", path, "--omegas", "0.3,1.7",
                      "-o", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, map(float, line.strip().split(","))))
                    for line in fh]
        for row in rows:
            assert abs(row["f12_re"] - row["f21_re"]) < 1e-12
            assert abs(row["f12_im"] + row["f21_im"]) < 1e-12
            assert abs(row["f11_im"]) < 1e-12
            assert abs(row["f22_im"]) < 1e-12

    def test_invariant_across_realizations(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        obj, _ = random_model_obj(rng)
        path = write_model(tmp_path / "m.json", obj)
        _, canon_out = run(capsys, "canonical", path, "--form", "controller")
        form_path = write_model(tmp_path / "form.json",
                                json.loads(canon_out)["statespace"])
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(capsys, "spectrum", path, "--omegas", "0.1,0.9,2.5",
            "-o", str(out1))
        run(capsys, "spectrum", form_path, "--omegas", "0.1,0.9,2.5",
            "-o", str(out2))
        # Equal transfer functions have identical reduced entries, so the
        # evaluations agree bit for bit, not merely within tolerance.
        assert out1.read_bytes() == out2.read_bytes()

    def test_large_frequency_is_no_pole(self, tmp_path, capsys):
        # H = 1/(z + 1)^3 tends to 0 as omega grows, while its denominator
        # at i*1e200 overflows to nan - inf*j
        path = write_model(tmp_path / "cube.json", ss_obj(
            [[0, 1, 0], [0, 0, 1], [-1, -3, -3]], [[0], [0], [1]], [[1, 0, 0]]))
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", path, "--omegas", "1e200,-1e300,2",
                      "-o", str(out_path))
        assert code == 0
        data = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert data[:2, 1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert abs(data[2, 1] - 1 / (125 * 2 * math.pi)) < 1e-15
        # 10^300/(z^2 + 1) next to its pole at i overflows read either way
        path = write_model(tmp_path / "near.json", ss_obj(
            [[0, 1], [-1, 0]], [[0], [1]], [[10**300, 0]]))
        code = cli.main(["spectrum", path, "--omegas", repr(1 + 2.0 ** -52),
                         "-o", str(tmp_path / "near.csv")])
        assert code == 6
        assert capsys.readouterr().err == (
            "error: spectral density overflows at i*1.0000000000000002\n")


JSON_TEXT = st.text() | st.sampled_from(
    ("", "\u00e9\u4e2d\U0001f600", '"quoted"', "back\\slash", "\x00\x1f\n\t\x7f",
     "\ud800"))
JSON_LEAVES = (JSON_TEXT | st.booleans() | st.none() | st.integers()
               | st.integers(2 ** 64, 2 ** 200).map(lambda v: v * (-1) ** (v % 2))
               | st.floats() | st.sampled_from((-0.0, 1e-300, math.nan, math.inf,
                                                -math.inf)))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)),
    max_leaves=20)


class TestCanonicalDumps:
    @example([])
    @example({})
    @example({"": [[], {}, ()], "\u00e9\"\x01": {"b": [], "a": {}}})
    @given(JSON_TREES)
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_json_dumps(self, obj):
        assert cli.canonical_dumps(obj) == json.dumps(obj, indent=2,
                                                      sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [{"a": {1: 0}}, [Fraction(1, 2)], {"a": {1, 2}}],
                             ids=["int-key", "fraction", "set"])
    def test_refuses_a_value_no_report_holds(self, obj):
        with pytest.raises(TypeError):
            cli.canonical_dumps(obj)


class TestReportRoundTrip:

    def test_canonical_serialization_identity_on_random_models(
            self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        forms = ("observer", "controller")
        for trial in range(100):
            obj, ss = random_model_obj(rng)
            h = transfer_function(ss)
            report = (cli.report_tf(h) if trial % 2 else
                      cli.report_canonical(forms[trial % 4 // 2], h))
            text = cli.canonical_dumps(report)
            reparsed = json.loads(text)
            assert reparsed == report
            assert cli.canonical_dumps(reparsed) == text

    def test_report_statespace_feeds_back_as_model(self, tmp_path, capsys):
        path = write_model(tmp_path / "mc.json",
                           mcarma_obj(2, 1, 1, 1, [[[3]], [[2]]],
                                      [[[1]], [[3]]]))
        _, out = run(capsys, "canonical", path, "--form", "observer")
        obs_path = write_model(tmp_path / "obs.json",
                               json.loads(out)["statespace"])
        code, _ = run(capsys, "check-equiv", path, obs_path)
        assert code == 0


class TestStartup:

    def test_exact_commands_load_neither_numpy_nor_scipy(self, tmp_path):
        path = write_model(tmp_path / "ou.json", OU)
        other = write_model(tmp_path / "m.json", ss_obj([[-3]], [[1]], [[10]]))
        script = """if True:
            import sys

            def assert_bare(what):
                # dataclasses imports inspect, about 15 ms of start-up
                loaded = sorted({"numpy", "scipy", "dataclasses", "inspect"}
                                & set(sys.modules))
                assert not loaded, f"{what} imported {loaded}"

            import carmakit
            namespace = {}
            exec("from carmakit import *", namespace)
            missing = set(carmakit.__all__) - set(namespace)
            assert not missing, f"star import lacks {sorted(missing)}"
            assert_bare("the star import")

            from carmakit import cli
            model, other = sys.argv[1:]
            for argv in (["tf", model],
                         ["canonical", model, "--form", "observer"],
                         ["canonical", model, "--form", "controller"],
                         ["check-equiv", model, model],
                         ["check-equiv", model, other]):
                assert cli.main(argv) in (0, 1), argv
            assert_bare("the exact commands")

            from carmakit import simulate
            defined = {name for name, value in vars(simulate).items()
                       if getattr(value, "__module__", None) == simulate.__name__}
            exported = sorted(defined & set(carmakit.__all__))
            assert not exported, f"carmakit.__all__ lists {exported}"
            print("ok", file=sys.stderr)
        """
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script, path, other],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "ok"

    def test_spectrum_runs_without_scipy(self, tmp_path):
        # numpy alone serves the simulate module's import and the spectral
        # density; scipy loads only when a simulation needs expm or a
        # Lyapunov solve
        path = write_model(tmp_path / "m.json",
                           ss_obj([[0, 1], [-2, -3]], [[0], [1]], [[1, 0]]))
        script = """if True:
            import sys

            def assert_no_scipy(what):
                loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
                assert not loaded, f"{what} imported {loaded}"

            import carmakit.simulate
            assert_no_scipy("import carmakit.simulate")
            from carmakit import cli
            model, out = sys.argv[1:]
            assert cli.main(["spectrum", model, "--omegas", "0,1.5",
                             "-o", out]) == 0
            assert_no_scipy("the spectrum command")
            carmakit.simulate.gaussian_step_params(
                cli.load_model(model), [[1.0]], 0.1)
            assert "scipy.linalg" in sys.modules
            print("ok", file=sys.stderr)
        """
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script, path,
                               str(tmp_path / "s.csv")],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "ok"
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 3


class TestHelp:

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("tf", "canonical", "check-equiv", "simulate", "spectrum"):
            assert name in out

    def test_simulate_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--driver", "--sigma", "--rate", "--jump", "--seed",
                     "--steps", "--h", "--init"):
            assert flag in out


# ---------------------------------------------------------------------------
# Fuzzing: every run ends in a documented exit code
# ---------------------------------------------------------------------------

SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
HUGE_INTS = st.integers(-10**400, 10**400)
# Every magnitude up to and past the double range, as exact integers.
POWERS_OF_TEN = st.builds(lambda sign, k: sign * 10**k,
                          st.sampled_from((1, -1)), st.integers(0, 400))
JUNK_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=6), HUGE_INTS,
    POWERS_OF_TEN, POWERS_OF_TEN.map(str),
    st.builds(lambda p, q: f"{p}/{q}", HUGE_INTS, st.integers(0, 10**400)))
JSON_VALUES = st.recursive(
    JUNK_SCALARS,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)


def _mostly(valid, invalid):
    """Nine draws in ten from ``valid``, else one from ``invalid``."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else invalid)


def _flag(valid, *invalid):
    return _mostly(valid.map(str), st.sampled_from(invalid))


def _entry_paths(obj, path=()):
    """Paths to the scalar entries of every nested array in a document."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _entry_paths(v, path + (k,))]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _entry_paths(v, path + (i,))]
    return [path] if path and isinstance(path[-1], int) else []


@st.composite
def model_texts(draw):
    """A valid statespace or mcarma file, or one corruption of one: text,
    or bytes that are not UTF-8."""
    k, d, m = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
               draw(st.integers(1, 2)))

    def mat(rows, cols):
        return draw(st.lists(st.lists(SMALL_RATIONALS, min_size=cols,
                                      max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        doc = ss_obj(mat(k, k), mat(k, m), mat(d, k))
    else:
        q = draw(st.integers(0, k - 1))
        doc = mcarma_obj(k, q, d, m, [mat(d, d) for _ in range(k)],
                         [mat(d, m) for _ in range(q + 1)])
    corruption = draw(st.sampled_from(
        ("none",) * 6
        + ("entry", "field", "extra", "missing", "document", "text",
           "nested", "bytes")))
    if corruption == "entry":
        *head, last = draw(st.sampled_from(_entry_paths(doc)))
        target = doc
        for key in head:
            target = target[key]
        target[last] = draw(JUNK_SCALARS)
    elif corruption == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    elif corruption == "extra":
        doc["extra"] = draw(JSON_VALUES)
    elif corruption == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif corruption == "document":
        doc = draw(JSON_VALUES)
    elif corruption == "text":
        return draw(st.text(max_size=20))
    elif corruption == "nested":
        return NESTED
    elif corruption == "bytes":
        return NOT_UTF8
    return json.dumps(doc)


STEPS = _flag(st.integers(1, 50), "0", "-3", "2.5", "x")
SEEDS = _flag(st.integers(0, 2**40), "-1", "x")
# With at most 50 steps of at most 10, every path is short and few jumps are
# drawn, yet a mildly unstable drift overflows.  "1e300" makes the expected
# jump sizes of any compound Poisson run exceed the size cap, so nothing is drawn;
# with "1e308" the last grid time of three or more steps overflows.
STEP_SIZES = _flag(st.sampled_from((0.01, 0.25, 1.0, 10.0)),
                   "0", "-1", "nan", "inf", "x", "1e300", "1e308", "1e-300")
RATES = _flag(st.sampled_from((0.01, 0.5, 3.0)),
              "0", "-1", "nan", "inf", "x", "1e300")
OMEGAS = _mostly(st.lists(st.floats(-10, 10), min_size=1, max_size=4)
                 .map(lambda ws: ",".join(map(repr, ws))),
                 st.one_of(st.sampled_from(("", ",", "x,1", "1e400")),
                           st.lists(st.floats(-10, 10).map(repr)
                                    | st.sampled_from(("nan", "inf", "-inf")),
                                    min_size=1, max_size=4).map(",".join)))


@st.composite
def side_arrays(draw, array):
    """``array``, a matrix as nested lists of numbers, as a side file may
    hold it: unchanged, flattened to rank 1, wrapped to rank 3, emptied, or
    with one entry made a string or a boolean."""
    change = draw(st.sampled_from(("none",) * 3 + ("flat", "wrapped", "empty",
                                                   "string", "boolean")))
    if change == "flat":
        return [x for row in array for x in row]
    if change == "wrapped":
        return [[[x] for x in row] for row in array]
    if change == "empty":
        return []
    if change != "none":
        i, j = draw(st.sampled_from(_entry_paths(array)))
        array[i][j] = repr(array[i][j]) if change == "string" else draw(st.booleans())
    return array


def _is_number_array(value, rank: int) -> bool:
    """Whether ``value`` nests non-empty lists exactly ``rank`` deep around
    JSON numbers (not strings or booleans)."""
    if rank == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return (isinstance(value, list) and bool(value)
            and all(_is_number_array(v, rank - 1) for v in value))


def _path(name):
    return _mostly(st.just("{dir}/" + name), st.just("{dir}/absent/" + name))


@st.composite
def cli_runs(draw):
    """``(files, argv)``: file contents by name and an argument list whose
    ``{dir}`` placeholders name the directory they are written to."""
    files = {"m1.json": draw(model_texts()), "m2.json": draw(model_texts())}
    model = draw(_path("m1.json"))
    out = ["-o", draw(_path("out"))]
    grid = ["--seed", draw(SEEDS), "--steps", draw(STEPS), "--h",
            draw(STEP_SIZES)]
    files["sigma.json"] = draw(_mostly(
        st.integers(1, 2).flatmap(lambda k: side_arrays(np.eye(k).tolist()))
        .map(json.dumps),
        JSON_VALUES.map(json.dumps) | st.sampled_from((NESTED, NOT_UTF8))))
    files["atoms.json"] = draw(_mostly(
        st.integers(1, 2).flatmap(lambda k: side_arrays([[1.0] * k, [-2.0] * k]))
        .map(lambda atoms: json.dumps({"atoms": atoms,
                                       "probabilities": [0.5, 0.5]})),
        JSON_VALUES.map(json.dumps) | st.sampled_from((NESTED, NOT_UTF8))))
    sigma = ["--sigma", draw(st.sampled_from(("identity", "{dir}/sigma.json")))]
    command = draw(st.sampled_from(
        ("tf", "canonical", "check-equiv", "simulate", "spectrum")))
    if command == "tf":
        argv = ["tf", model] + draw(st.sampled_from(([], out)))
    elif command == "canonical":
        argv = ["canonical", model, "--form",
                draw(_mostly(st.sampled_from(("observer", "controller")),
                             st.just("minimal")))]
    elif command == "check-equiv":
        argv = ["check-equiv", model,
                draw(st.sampled_from(("{dir}/m1.json", "{dir}/m2.json")))]
        if draw(st.booleans()):
            argv += ["--simulate", "cp", "--rate", draw(RATES)]
            argv += draw(_mostly(st.just(grid), st.just(grid[2:])))
    elif command == "simulate":
        driver = draw(st.sampled_from(("brownian", "cp")))
        argv = ["simulate", model, "--driver", driver] + grid + out
        if driver == "cp":
            argv += ["--rate", draw(RATES), "--jump", draw(_mostly(
                st.sampled_from(("gaussian", "atoms:{dir}/atoms.json")),
                st.just("levy")))]
        else:
            argv += sigma
        argv += ["--init", draw(_mostly(st.just("zero"),
                                        st.just("stationary")))]
    else:
        argv = ["spectrum", model, "--omegas", draw(OMEGAS)] + sigma + out
    return files, argv


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_exit_codes():
    """The codes README's exit-code table documents, and the refusal causes
    listed under it as (id, exit code) pairs, in README's order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Exit codes\n")[1].split("\n## ")[0]
    codes = {int(k) for k in re.findall(r"^\| (\d+) \|", section, re.M)}
    causes = [(cause, int(k)) for cause, k
              in re.findall(r"^- `([^`]+)` \(exit (\d+)\): ", section, re.M)]
    return codes, causes


DOCUMENTED_CODES, README_CAUSES = readme_exit_codes()


class TestFuzz:

    # Side files the random draws reach only now and then: a string entry
    # in a covariance, and rank-3 atoms that fit a two-state model's input
    # but not its state update.
    @example(({"m1.json": json.dumps(OU), "sigma.json": '[["1.0"]]'},
              ["spectrum", "{dir}/m1.json", "--omegas", "0", "--sigma",
               "{dir}/sigma.json", "-o", "{dir}/out"]))
    @example(({"m1.json": json.dumps(ss_obj([[-1, 0], [0, -2]], [[1], [1]],
                                            [[1, 1]])),
               "atoms.json": json.dumps({"atoms": [[[1.0]], [[-2.0]]],
                                         "probabilities": [0.5, 0.5]})},
              ["simulate", "{dir}/m1.json", "--driver", "cp", "--seed", "9",
               "--steps", "40", "--h", "0.25", "-o", "{dir}/out", "--rate",
               "3.0", "--jump", "atoms:{dir}/atoms.json"]))
    @given(cli_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_run_ends_in_a_documented_exit_code(self, run_spec):
        files, argv = run_spec
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                Path(tmp, name).write_bytes(
                    content if isinstance(content, bytes) else content.encode())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([a.format(dir=tmp) for a in argv])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        assert code in DOCUMENTED_CODES, (argv, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 0 and "{dir}/sigma.json" in argv:
            # a run that read a side file succeeds only on the documented shape
            assert _is_number_array(json.loads(files["sigma.json"]), 2)
        if code == 0 and "atoms:{dir}/atoms.json" in argv:
            doc = json.loads(files["atoms.json"])
            assert _is_number_array(doc["atoms"], 2)
            assert _is_number_array(doc["probabilities"], 1)
        if code == 1:
            assert argv[0] == "check-equiv"
            assert out.getvalue().startswith("DISTINCT\n")
        if argv[0] == "spectrum" and any(w in argv[3] for w in ("nan", "inf",
                                                                "e400")):
            assert code == 2, "a non-finite frequency is a usage error"


# ---------------------------------------------------------------------------
# The refusal catalogue: README's "Exit codes" section lists each cause of a
# refusal once, and REFUSALS runs each of them
# ---------------------------------------------------------------------------

MCARMA = mcarma_obj(2, 1, 1, 1, [[[3]], [[2]]], [[[1]], [[3]]])
GRID = "--seed 1 --steps 10 --h 0.1"
BROWNIAN = "simulate {m} --driver brownian -o {out}"
CP = "simulate {m} --driver cp -o {out}"
CP_RUN = f"{CP} --rate 1 {GRID}"
EQUIV_CP = "check-equiv {m} {m} --simulate cp --seed 0 --steps 10"
SPECTRUM = "spectrum {m} -o {out}"
GRID_ERROR = "error: the grid of 10 steps of 1e+308 ends past the double range"
# the jump sizes of 1e300 * 9 expected jumps of one input
JUMP_ERROR = f"error: path needs {1e300 * 9:.0f} values in one array, more than"
FINITE_ATOMS = "atoms and their probabilities must be finite"
NOT_RATIONAL = "expected a rational string like \"3/4\", got "
# Each row is a model file, a side file, the argv split on spaces, the exit
# code and a fragment of stderr.  "{m}", "{side}", "{out}" and "{dir}" stand
# for the two files, the output path and their directory: a refusal of a
# file's content names the file.  A row id is a README cause id, or one
# followed by "/variant".
REFUSALS = {
    "file-unreadable": (OU, None, "tf {dir}/absent.json", 2,
                        "error: cannot read {dir}/absent.json: "),
    "file-not-json": (b"not json at all {", None, "tf {m}", 2,
                      "error: {m} is not valid JSON: "),
    "top-level-array": ([], None, "tf {m}", 2, "top level must be a JSON object"),
    "model-kind": (
        {**OU, "kind": "weird"}, None, "tf {m}", 2,
        "error: {m}: kind must be \"statespace\" or \"mcarma\", got 'weird'\n"),
    "model-fields/unknown": ({**OU, "extra": 1}, None, "tf {m}", 2,
                             "error: {m} has unknown fields: ['extra']\n"),
    "model-fields/missing": ({k: v for k, v in OU.items() if k != "C"}, None,
                             "tf {m}", 2, "error: {m} is missing fields: ['C']\n"),
    "empty-matrix": ({**OU, "A": []}, None, "tf {m}", 2,
                     "m.json:A must be a non-empty nested array"),
    **{f"rational-entry/{name}": ({**OU, field: [[entry]]}, None, "tf {m}", 2,
                                  f"error: {{m}}:{field}[0][0]: {message}")
       for name, field, entry, message in (
           ("zero-denominator", "A", "1/0", "zero denominator"),
           ("float", "A", 0.5, NOT_RATIONAL + "0.5"),
           ("boolean", "A", True, NOT_RATIONAL + "True"),
           ("padded", "A", "3/4\n", ""), ("fullwidth-digit", "A", "\uff11", ""),
           ("arabic-indic-digits", "C", "\u0661/\u0662", ""))},
    "p-not-an-integer": ({**MCARMA, "p": True}, None, "tf {m}", 2,
                         "m.json.p must be an integer"),
    "coeffs-not-an-array": ({**MCARMA, "A_coeffs": {"1": "3"}}, None, "tf {m}", 2,
                            "m.json.A_coeffs must be an array"),
    "mcarma-order/q-not-below-p": (
        mcarma_obj(1, 1, 1, 1, [[[3]]], [[[1]], [[2]]]), None, "tf {m}", 2,
        "error: {m}: moving-average order must satisfy 0 <= q < p\n"),
    "mcarma-order/p-zero": (
        {**MCARMA, "p": 0}, None, "tf {m}", 2,
        "error: {m}: autoregressive order p must be at least 1\n"),
    "side-not-numbers": (
        OU, [["2"]], f"{BROWNIAN} --sigma {{side}} {GRID}", 2,
        "error: {side}: covariance must hold JSON numbers, got '2'\n"),
    "sigma-not-covariance": (
        OU, [[-1.0]], f"{BROWNIAN} --sigma {{side}} {GRID}", 2,
        "error: {side}: driver covariance must be positive semidefinite\n"),
    "atom-file-fields": (
        OU, {"atoms": [[1.0]]}, CP_RUN + " --jump atoms:{side}", 2,
        "{side}: atom file must hold exactly the fields atoms, probabilities"),
    **{f"atom-values/{name}": (OU, {"atoms": atoms, "probabilities": probabilities},
                               CP_RUN + " --jump atoms:{side}", 2,
                               "error: {side}: bad atom file: " + message)
       for name, atoms, probabilities, message in (
           ("sum", [[2.0], [1.0]], [0.5, 0.6], "atom probabilities must sum to 1"),
           ("huge", [[10**400]], [1.0], "atoms must be a numeric array"),
           ("nan", [[math.nan]], [1.0], FINITE_ATOMS),
           ("minus-inf", [[-math.inf]], [1.0], FINITE_ATOMS),
           ("probability-nan", [[1.0]], [math.nan], FINITE_ATOMS))},
    "jump-law-unknown": (OU, None, CP_RUN + " --jump poisson", 2,
                         "jump distribution must be"),
    **{f"flag-value/{name}": (OU, None, argv, 2, f"argument {message}")
       for name, argv, message in (
           ("steps-0", "check-equiv {m} {m} --simulate cp --seed 1 --steps 0 --h 0.1",
            "--steps: expected an integer >= 1, got '0'"),
           ("seed-negative", f"{BROWNIAN} --seed -1 --steps 10 --h 0.1",
            "--seed: expected an integer >= 0, got '-1'"),
           ("h-nan", f"{BROWNIAN} --seed 1 --steps 10 --h nan",
            "--h: expected a finite number > 0, got 'nan'"),
           ("h-negative", f"{BROWNIAN} --seed 1 --steps 10 --h -1",
            "--h: expected a finite number > 0, got '-1'"),
           ("rate-0", f"{CP} --rate 0 {GRID}",
            "--rate: expected a finite number > 0, got '0'"),
           ("form", "canonical {m} --form minimal",
            "--form: invalid choice: 'minimal'"))},
    **{f"flag-omegas/{name}": (OU, None, f"{SPECTRUM} --omegas={omegas}", 2,
                               "argument --omegas: omegas must")
       for name, omegas in (("nan", "nan"), ("inf", "0,inf"), ("minus-inf", "1,-inf"),
                            ("overflow", "1e400"), ("not-a-number", "1,x"),
                            ("empty", ""), ("comma", ","), ("empty-inside", "1,,2"),
                            ("empty-last", "1,"))},
    "flag-missing/simulate-cp": (
        OU, None, "check-equiv {m} {m} --simulate cp", 2,
        "error: --simulate cp requires --seed, --steps, --h\n"),
    "flag-missing/rate": (OU, None, f"{CP} {GRID}", 2,
                          "error: --driver cp requires --rate\n"),
    **{f"flag-unused/{name}": (OU, None, argv, 2,
                               f"error: {flag} is only available with {branch}\n")
       for name, argv, flag, branch in (
           ("stationary-cp", CP_RUN + " --init stationary", "--init stationary",
            "--driver brownian"),
           ("sigma-cp", CP_RUN + " --sigma identity", "--sigma", "--driver brownian"),
           ("rate-brownian", f"{BROWNIAN} --rate 1 {GRID}", "--rate", "--driver cp"),
           ("jump-brownian", f"{BROWNIAN} --jump gaussian {GRID}", "--jump",
            "--driver cp"),
           *((f"check-equiv-{flag}", f"check-equiv {{m}} {{m}} --{flag} 1", f"--{flag}",
              "--simulate cp") for flag in ("rate", "seed", "steps", "h")))},
    **{f"out-unwritable/{name}": (OU, None, argv + " -o {dir}/missing/x", 2,
                                  "No such file or directory")
       for name, argv in (("tf", "tf {m}"),
                          ("canonical", "canonical {m} --form observer"),
                          ("check-equiv", "check-equiv {m} {m}"),
                          ("check-equiv-cp", EQUIV_CP + " --h 0.1"),
                          ("simulate", f"simulate {{m}} --driver brownian {GRID}"))},
    "result-too-long": (TOO_LONG, None, "tf {m} -o {out}", 2,
                        "error: exact result has more than "),
    "entry-range": (HUGE, None, f"{BROWNIAN} --seed 0 --steps 10 --h 1", 2,
                    "error: model entry: integer division result too large"),
    "coefficient-range": (
        HUGE, None, f"{SPECTRUM} --omegas 1", 2,
        "error: transfer function: integer division result too large"),
    "noise-range": (ss_obj([[-1]], [[10**300]], [[1]]), None,
                    f"{BROWNIAN} --init stationary --seed 0 --steps 10 --h 1", 2,
                    "error: noise covariance"),
    "density-range": (ss_obj([[-1]], [[5]], [[1]]), [[1.7e308]],
                      f"{SPECTRUM} --sigma {{side}} --omegas 0", 2,
                      "error: spectral density at i*0.0 beyond the double range\n"),
    "step-covariance-range": (
        ss_obj([[-1]], [[1]], [[1]]), [[1.7e308]],
        f"{BROWNIAN} --sigma {{side}} --seed 0 --steps 10 --h 1", 2,
        "error: one-step covariance overflows at step size 1\n"),
    # Stable drifts whose compound-Poisson path turns non-finite only because
    # e^{A gap} is NaN over a gap near the double range: exit 2, since exit 5
    # means an unstable drift.  STABLE_3X3 is the benchmark's CLI model (seed
    # 21), e^{A gap} NaN from a gap of about 7.5e37.
    **{f"path-range/{name}": (
        model, None, f"{CP} --rate {rate} --seed 1 --steps 3 --h {h}", 2,
        f"error: sample path overflows: first non-finite output at t={float(h):.17g}\n")
       for name, model, h, rate in (
           ("benchmark-model", STABLE_3X3, "1e38", "1e-38"),
           ("triangular", ss_obj([[-1, "1/2"], [0, -2]], [[1], [1]], [[1, 0]]),
            "1e300", "1e-300"))},
    # the drift is stable, so a start the float solve cannot give is out of
    # range, not unstable
    "lyapunov-residual": (ILL_CONDITIONED, None,
                          f"{BROWNIAN} --init stationary {GRID}", 2,
                          "error: Lyapunov solve residual"),
    **{f"grid-range/{name}": (OU, None, argv + " --h 1e308", 2, GRID_ERROR)
       for name, argv in (("brownian", f"{BROWNIAN} --seed 0 --steps 10"),
                          ("cp", f"{CP} --rate 1 --seed 0 --steps 10"),
                          ("check-equiv", EQUIV_CP))},
    "drift-step-range": (ss_obj([[-10**300]], [[1]], [[1]]), None,
                         f"{BROWNIAN} --seed 0 --steps 10 --h 1e10", 2,
                         "error: drift norm times step size"),
    **{f"path-cap/{name}": (OU, None, argv + " --rate 1e300 --h 1", 2, JUMP_ERROR)
       for name, argv in (("simulate-rate", f"{CP} --seed 0 --steps 10"),
                          ("check-equiv-rate", EQUIV_CP))},
    # one state and 1,000 outputs: 20,000 steps hold 2e7 output floats
    "path-cap/outputs": (
        WIDE_1000, None, f"{CP} --rate 1 --seed 0 --steps 20000 --h 0.01", 2,
        "error: path needs 20000000 values in one array"),
    # 300 outputs over 60 frequencies: 60 * 2 * 300^2 = 1.08e7 density floats
    "spectrum-cap": (
        WIDE_300, None, f"{SPECTRUM} --omegas " + ",".join(map(str, range(60))), 2,
        "error: path needs 10800000 values in one array"),
    "model-shape": ({**OU, "B": [["1"], ["2"]]}, None, "tf {m}", 3,
                    "error: {m}: B must have as many rows as A\n"),
    "ragged-matrix": ({**OU, "A": [["-1", "0"], ["1"]]}, None, "tf {m}", 3,
                      "error: {m}: ragged matrix rows\n"),
    "ar-shape": (mcarma_obj(2, 0, 2, 1, [[[1, 0], [0, 1]], [[1]]], [[[1], [0]]]), None,
                 "tf {m}", 3, "error: {m}: autoregressive coefficients must be dxd\n"),
    # the d x 1 moving-average blocks are refused before any d x m block
    # is built for an m this large
    "ma-shape-before-blocks": ({**MCARMA, "m": 1000000000}, None, "tf {m}", 3,
                               "moving-average coefficients must be dxm"),
    "pair-shape": (
        OU, ss_obj([[-3]], [[1]], [[5], [1]]), "check-equiv {m} {side}", 3,
        "error: models must share input and output dimensions to be compared\n"),
    **{f"sigma-size{name}": (
        OU, sigma, f"{BROWNIAN} --sigma {{side}} {GRID}", 3,
        "error: {side}: driver covariance must be 1x1 to match the model input\n")
       for name, sigma in (("", [[1.0, 0.0], [0.0, 1.0]]), ("/row", [[1.0, 0.0]]))},
    "atom-probability-count": (OU, {"atoms": [[1.0], [2.0]], "probabilities": [1.0]},
                               CP_RUN + " --jump atoms:{side}", 3,
                               "error: {side}: one probability per atom required\n"),
    "atom-size": (TWO_INPUTS, {"atoms": [[1.0, 2.0, 3.0]], "probabilities": [1.0]},
                  CP_RUN + " --jump atoms:{side}", 3,
                  "error: every model must have the driver's input dimension m = 3\n"),
    "tf-zero": (mcarma_obj(1, 0, 1, 1, [[[1]]], [[[0]]]), None,
                "canonical {m} --form observer", 4,
                "error: cannot realize an identically zero transfer function\n"),
    "stationary-unstable": (UNSTABLE, None, f"{BROWNIAN} --init stationary {GRID}", 5,
                            "error: stationary covariance requires a stable drift\n"),
    "step-covariance-unstable": (
        UNSTABLE, None, f"{BROWNIAN} --seed 1 --steps 10 --h 1000", 5,
        "error: one-step covariance overflows at step size 1000\n"),
    **{f"path-unstable/{name}": (
        UNSTABLE, None, argv + " --seed 1 --steps 2000 --h 1", 5, UNSTABLE_ERROR)
       for name, argv in (("brownian", BROWNIAN), ("cp", f"{CP} --rate 1"),
                          ("check-equiv", "check-equiv {m} {m} --simulate cp"))},
    "pole": (ss_obj([[0]], [[1]], [[1]]), None, f"{SPECTRUM} --omegas 0,1", 6,
             "error: transfer function has a pole at i*0.0\n"),
    # 10^300/(z^2 + 1) next to its pole at i overflows read either way
    "pole-overflow": (ss_obj([[0, 1], [-1, 0]], [[0], [1]], [[10**300, 0]]), None,
                      f"{SPECTRUM} --omegas {1 + 2.0 ** -52!r}", 6,
                      "error: spectral density overflows at i*1.0000000000000002\n"),
}


@pytest.mark.parametrize("model, side, argv, code, message", REFUSALS.values(),
                         ids=list(REFUSALS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_refusals(tmp_path, capsys, model, side, argv, code, message):
    files = {"dir": tmp_path, "m": write_model(tmp_path / "m.json", model),
             "side": write_model(tmp_path / "side.json", side),
             "out": tmp_path / "x.csv"}
    try:
        got, usage = cli.main([arg.format(**files) for arg in argv.split()]), False
    except SystemExit as exc:  # an argparse usage error
        got, usage = exc.code, True
    out, err = capsys.readouterr()
    assert got == code
    assert message.format(**files) in err and "Traceback" not in err
    # one error line, last, after argparse's usage lines if any
    lines = err.splitlines()
    assert [line for line in lines if "error: " in line] == lines[-1:]
    assert lines[0].startswith("usage: " if usage else "error: ")
    assert out == ""
    assert not files["out"].exists()


def test_readme_lists_every_refusal():
    causes = dict(README_CAUSES)
    assert len(causes) == len(README_CAUSES), "a README cause is listed twice"
    rows = {row_id: row[3] for row_id, row in REFUSALS.items()}
    unrun = set(causes) - {row_id.split("/")[0] for row_id in rows}
    assert not unrun, f"README causes with no REFUSALS row: {sorted(unrun)}"
    # a row whose id README does not list reads None here
    assert {row_id: causes.get(row_id.split("/")[0]) for row_id in rows} == rows
    assert set(causes.values()) <= DOCUMENTED_CODES
