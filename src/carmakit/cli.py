"""Command-line front end tying the algebra and simulation layers together.

Model files are JSON documents with a ``kind`` of "statespace" (fields A, B, C
as nested arrays of rational strings) or "mcarma" (fields p, q, d, m,
A_coeffs, B_coeffs).  Unknown fields are rejected so a typo cannot silently
change a model.  Reports are JSON with sorted keys, two-space indent and a
trailing newline, so re-parsing and re-serializing a report reproduces it
byte for byte.  Rationals stay strings end to end; floats appear only in
simulation CSVs and metadata sidecars.

Exit codes are a stable interface:

  0  success (check-equiv: models equivalent)
  1  check-equiv: models distinct
  2  parse or usage error (bad JSON, UTF-8 or nesting, bad rational, unknown
     field, bad flags, a side-file entry that is not a JSON number, atoms
     not a non-empty list of vectors, atom probabilities that are negative
     or do not sum to 1, a --sigma that is not finite, symmetric and PSD);
     an exact report integer too long to print; or an input out of range
     (see errors.OutOfRange): a model entry beyond the double range,
     refused before any draw; a transfer-function coefficient or noise
     covariance B Sigma B^T beyond the double range; a --sigma whose
     density overflows on a model with no pole there; a one-step covariance
     or a simulated path that overflows on a stable drift; --init
     stationary on a stable drift whose Lyapunov solve misses the residual
     tolerance; a grid end or a drift norm times step size that overflows;
     a run whose largest array (a model's steps x max(N, d) states or
     outputs, the increments, the jump sizes) would hold over
     simulate.MAX_PATH_VALUES floats, refused before any draw; or a
     spectrum whose densities, 2 d^2 floats a frequency, would too,
     refused before the first density
  3  dimension error
  4  degenerate transfer function (identically zero, or not strictly proper)
  5  unstable drift: --init stationary on an unstable drift, or a one-step
     covariance or a simulated path that overflows on an unstable drift
  6  spectral density pole on the sampled axis, or a density that overflows
     there even with --sigma scaled to largest entry 1
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import (
    DegenerateTransferFunction,
    DimensionMismatch,
    ModelFileError,
    OutOfRange,
    PoleOnEvaluationAxis,
    UnstableModel,
)
from .exactalg import (
    Poly,
    PolyMatrix,
    TransferFunction,
    _is_integer,
    format_rational,
    parse_rational,
)
from .realization import (
    McarmaSpec,
    StateSpaceModel,
    assemble_observer_ss,
    controller_realization,
    observer_realization,
    tf_equivalent,
    tf_match,
    transfer_function,
)

EXIT_OK = 0
EXIT_DISTINCT = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_DEGENERATE = 4
EXIT_UNSTABLE = 5
EXIT_POLE = 6


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer literal past the interpreter's digit
        # limit, or nesting deeper than the recursion limit
        raise ModelFileError(f"{path} is not valid JSON: {exc}") from exc


def _check_fields(obj: dict, required: set, label: str) -> None:
    missing = required - set(obj)
    if missing:
        raise ModelFileError(f"{label} is missing fields: {sorted(missing)}")
    unknown = set(obj) - required
    if unknown:
        raise ModelFileError(f"{label} has unknown fields: {sorted(unknown)}")


def _rational_entry(value, label: str) -> Fraction:
    # Strings and ints are exact; floats are rejected rather than rounded.
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ModelFileError(f"{label}: {exc}") from exc
    if _is_integer(value):
        return Fraction(value)
    raise ModelFileError(
        f"{label}: expected a rational string like \"3/4\", got {value!r}")


def _rational_rows(value, label: str) -> tuple:
    if (not isinstance(value, list) or not value
            or any(not isinstance(row, list) or not row for row in value)):
        raise ModelFileError(f"{label} must be a non-empty nested array")
    return tuple(
        tuple(_rational_entry(v, f"{label}[{i}][{j}]")
              for j, v in enumerate(row))
        for i, row in enumerate(value))


def _int_field(obj: dict, name: str, label: str) -> int:
    value = obj[name]
    if not _is_integer(value):
        raise ModelFileError(f"{label}.{name} must be an integer")
    return value


def _about_file(path: str, exc: ValueError) -> ValueError:
    """The refusal ``exc`` of the content of the file at ``path``, with the
    path in front of its message: a ``DimensionMismatch`` stays one, and any
    other ``ValueError`` becomes a ``ModelFileError``."""
    kind = DimensionMismatch if isinstance(exc, DimensionMismatch) else ModelFileError
    return kind(f"{path}: {exc}")


def load_model(path: str) -> StateSpaceModel:
    """Parse a model file into a StateSpaceModel; a coefficient spec is
    assembled into its observer form.

    Structural problems (bad JSON, unknown fields, malformed rationals,
    invalid orders) raise ModelFileError; shape inconsistencies raise
    DimensionMismatch so they map to a distinct exit code.  Every refusal
    names the file.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ModelFileError(f"{path}: top level must be a JSON object")
    kind = obj.get("kind")
    if kind == "statespace":
        _check_fields(obj, {"kind", "A", "B", "C"}, path)
        a, b, c = (_rational_rows(obj[name], f"{path}:{name}") for name in "ABC")
        try:
            return StateSpaceModel(a=a, b=b, c=c)
        except DimensionMismatch as exc:
            raise _about_file(path, exc) from exc
    if kind == "mcarma":
        _check_fields(obj, {"kind", "p", "q", "d", "m", "A_coeffs", "B_coeffs"},
                      path)
        p = _int_field(obj, "p", path)
        q = _int_field(obj, "q", path)
        d = _int_field(obj, "d", path)
        m = _int_field(obj, "m", path)
        for name in ("A_coeffs", "B_coeffs"):
            if not isinstance(obj[name], list):
                raise ModelFileError(f"{path}.{name} must be an array")
        a_coeffs = tuple(_rational_rows(ai, f"{path}:A_coeffs[{k}]")
                         for k, ai in enumerate(obj["A_coeffs"]))
        b_coeffs = tuple(_rational_rows(bj, f"{path}:B_coeffs[{k}]")
                         for k, bj in enumerate(obj["B_coeffs"]))
        try:
            spec = McarmaSpec(p=p, q=q, d=d, m=m,
                              a_coeffs=a_coeffs, b_coeffs=b_coeffs)
        except ValueError as exc:
            raise _about_file(path, exc) from exc
        return assemble_observer_ss(spec)
    raise ModelFileError(
        f"{path}: kind must be \"statespace\" or \"mcarma\", got {kind!r}")


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _rat_rows_json(mat) -> list:
    return [list(map(format_rational, row)) for row in mat]


def _poly_json(poly: Poly) -> list:
    # Ascending coefficients as rational strings; the zero polynomial is [].
    return list(poly.literals)


def _coefficient_json(pm: PolyMatrix, k: int) -> list:
    """The ``z**k`` coefficient block of ``pm`` as rows of rational strings,
    read from each entry's kept literals."""
    return [[lits[k] if k < len(lits) else "0"
             for lits in [e.literals for e in pm.row(i)]]
            for i in range(pm.rows)]


def _polymatrix_json(pm: PolyMatrix) -> list:
    return [[_poly_json(pm[i, j]) for j in range(pm.cols)]
            for i in range(pm.rows)]


def _statespace_json(ss: StateSpaceModel) -> dict:
    # Shaped exactly like a "statespace" model file, so reports can be fed
    # back in as inputs.
    return {"kind": "statespace", "A": _rat_rows_json(ss.a),
            "B": _rat_rows_json(ss.b), "C": _rat_rows_json(ss.c)}


def _mfd_json(mfd) -> dict:
    return {"side": mfd.side, "p": mfd.p, "q": mfd.q,
            "den": _polymatrix_json(mfd.den), "num": _polymatrix_json(mfd.num)}


def report_tf(h: TransferFunction) -> dict:
    entries = [[{"num": _poly_json(h[i, j].num), "den": _poly_json(h[i, j].den)}
                for j in range(h.cols)] for i in range(h.rows)]
    return {"kind": "transfer_function", "outputs": h.rows, "inputs": h.cols,
            "common_den": _poly_json(h.common_den), "entries": entries}


def report_canonical(form: str, h: TransferFunction) -> dict:
    """The report of one canonical form: its autoregressive and numerator
    blocks read off its matrix fraction, the observer's input blocks off B."""
    realize = {"observer": observer_realization,
               "controller": controller_realization}.get(form)
    if realize is None:
        raise ValueError(f"unknown canonical form: {form!r}")
    real, mfd = realize(h)
    ss, p, q = real.statespace, mfd.p, mfd.q
    num = [_coefficient_json(mfd.num, k) for k in range(p)]
    statespace = _statespace_json(ss)
    report = {
        "kind": "canonical_form",
        "form": form,
        "p": p,
        "ar_coeffs": [_coefficient_json(mfd.den, p - i) for i in range(1, p + 1)],
        "statespace": statespace,
        "mfd": _mfd_json(mfd),
        "tf_match": tf_match(ss, h),
    }
    if form == "observer":
        b = statespace["B"]
        report.update(q=q, ma_coeffs=num[q::-1],
                      input_blocks=[b[k * ss.d:(k + 1) * ss.d] for k in range(p)])
    else:
        report.update(q_tilde=q, num_coeffs_descending=num[q::-1], num_coeffs=num)
    return report


def canonical_dumps(report: dict) -> str:
    """The one serialization used everywhere: sorted keys, 2-space indent,
    trailing newline.  Dump-parse-dump is the identity.

    The bytes are exactly those of ``json.dumps(report, indent=2,
    sort_keys=True) + "\n"``, whose indent forces json's pure-Python encoder;
    a direct recursive emitter writes them instead.  Strings go through
    json's own ``encode_basestring_ascii``, and any leaf but a string, bool,
    None or int, a float say, through ``json.dumps``.  Dictionary keys must
    be strings, as in every report: any other key raises ``TypeError``.
    """
    parts = []
    _emit(report, "\n", parts)
    parts.append("\n")
    return "".join(parts)


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _emit(obj, newline: str, parts: list) -> None:
    """Append the JSON text of ``obj`` to ``parts``; ``newline`` is the line
    break and indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        parts.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in obj:
            parts.append(separator)
            _emit(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(obj):
            parts.append(separator + _encode_str(key) + ": ")
            _emit(obj[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        parts.append(json.dumps(obj))


def _emit_report(report: dict, out_path) -> None:
    text = canonical_dumps(report)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Driver flags
#
# Only the floating-point commands reach these, so they import numpy and
# carmakit.simulate where they run: the exact commands start without numpy,
# and only a simulation loads scipy.
# ---------------------------------------------------------------------------

def _number_array(value, label: str) -> "numpy.ndarray":
    """A side file's array as floats; a string or boolean entry is refused."""
    import numpy as np

    stack = [value]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            stack.extend(entry)
        elif isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ModelFileError(f"{label} must hold JSON numbers, got {entry!r}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ModelFileError(f"{label} must be a numeric array") from exc


def _load_sigma(spec: str, m: int) -> "numpy.ndarray":
    import numpy as np
    from .simulate import _driver_covariance

    if spec == "identity":
        return np.eye(m)
    sigma = _number_array(_load_json(spec), f"{spec}: covariance")
    try:
        return _driver_covariance(sigma, m)
    except ValueError as exc:
        raise _about_file(spec, exc) from exc


def _load_jumps(spec: str, m: int):
    import numpy as np
    from .simulate import FixedAtomJumps, GaussianJumps

    if spec == "gaussian":
        return GaussianJumps(mean=np.zeros(m), cov=np.eye(m))
    if spec.startswith("atoms:"):
        path = spec[len("atoms:"):]
        obj = _load_json(path)
        if (not isinstance(obj, dict)
                or set(obj) != {"atoms", "probabilities"}):
            raise ModelFileError(f"{path}: atom file must hold exactly the "
                                 "fields atoms, probabilities")
        try:
            return FixedAtomJumps(*(_number_array(obj[name], name) for name
                                    in ("atoms", "probabilities")))
        except DimensionMismatch as exc:
            raise _about_file(path, exc) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelFileError(f"{path}: bad atom file: {exc}") from exc
    raise ModelFileError(
        f"jump distribution must be \"gaussian\" or \"atoms:<file>\", got {spec!r}")


def _jump_json(jumps) -> dict:
    from .simulate import GaussianJumps

    if isinstance(jumps, GaussianJumps):
        return {"kind": "gaussian", "mean": jumps.mean.tolist(),
                "cov": jumps.cov.tolist()}
    return {"kind": "atoms", "atoms": jumps.atoms.tolist(),
            "probabilities": jumps.probabilities.tolist()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_tf(args) -> int:
    h = transfer_function(load_model(args.model))
    _emit_report(report_tf(h), args.out)
    return EXIT_OK


def cmd_canonical(args) -> int:
    h = transfer_function(load_model(args.model))
    _emit_report(report_canonical(args.form, h), args.out)
    return EXIT_OK


def cmd_check_equiv(args) -> int:
    ss1 = load_model(args.model1)
    ss2 = load_model(args.model2)
    equivalent = tf_equivalent(ss1, ss2)
    report = {"kind": "equivalence",
              "verdict": "EQUIVALENT" if equivalent else "DISTINCT"}
    lines = [report["verdict"]]
    if args.simulate == "cp":
        import numpy as np
        from .simulate import (LevyDriverSpec, SimulationConfig,
                               simulate_compound_poisson_pair)

        driver = LevyDriverSpec.compound_poisson(
            rate=args.rate, jumps=_load_jumps("gaussian", ss1.m))
        cfg = SimulationConfig(step_size=args.h, steps=args.steps,
                               seed=args.seed)
        path1, path2 = simulate_compound_poisson_pair(ss1, ss2, driver, cfg)
        gap = float(np.max(np.abs(path1.outputs - path2.outputs)))
        scale = float(max(np.max(np.abs(path1.outputs)),
                          np.max(np.abs(path2.outputs))))
        report["sup_norm_gap"] = gap
        report["relative_gap"] = gap / scale if scale > 0 else 0.0
        report["simulation"] = {"driver": "cp", "rate": args.rate,
                                "seed": args.seed, "steps": args.steps,
                                "step_size": args.h}
        lines.append(f"sup_norm_gap {gap:.17g}")
        lines.append(f"relative_gap {report['relative_gap']:.17g}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_dumps(report))
    return EXIT_OK if equivalent else EXIT_DISTINCT


def cmd_simulate(args) -> int:
    from .simulate import (LevyDriverSpec, SimulationConfig,
                           _compound_poisson_run, simulate_brownian)

    ss = load_model(args.model)
    cfg = SimulationConfig(step_size=args.h, steps=args.steps, seed=args.seed,
                           init=args.init)
    if args.driver == "brownian":
        sigma = _load_sigma(args.sigma, ss.m)
        path = simulate_brownian(ss, sigma, cfg)
        driver_meta = {"kind": "brownian", "sigma": sigma.tolist()}
    else:
        jumps = _load_jumps(args.jump, ss.m)
        driver = LevyDriverSpec.compound_poisson(rate=args.rate, jumps=jumps)
        path, = _compound_poisson_run((ss,), driver, cfg)
        driver_meta = {"kind": "compound_poisson", "rate": driver.rate,
                       "jump": _jump_json(jumps)}
    path.to_csv(args.out)
    meta = {"kind": "simulation_metadata", "model": args.model,
            "driver": driver_meta, "seed": args.seed, "steps": args.steps,
            "step_size": args.h, "init": args.init, "output": args.out,
            "outputs": ss.d, "inputs": ss.m, "state_dim": ss.n}
    with open(args.out + ".meta.json", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(canonical_dumps(meta))
    sys.stdout.write(args.out + "\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    import numpy as np
    from .simulate import _require_path_values, _spectral_density, write_csv

    ss = load_model(args.model)
    d = ss.d
    # the densities hold 2 d^2 floats a frequency
    _require_path_values(len(args.omegas) * 2 * d * d)
    h = transfer_function(ss)
    sigma = _load_sigma(args.sigma, ss.m)
    # _load_sigma has checked sigma, once for every frequency
    values = np.array([_spectral_density(h, sigma, omega) for omega in args.omegas],
                      dtype=complex).reshape(len(args.omegas), d * d)
    header = ["omega", *(f"f{i + 1}{j + 1}_{part}" for i in range(d)
                         for j in range(d) for part in ("re", "im"))]
    write_csv(args.out, header, np.array(args.omegas, dtype=float),
              values.view(float))
    sys.stdout.write(args.out + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _checked(convert, accept, requirement: str):
    """An argparse ``type=`` that converts a flag and rejects values outside
    its domain, so a bad flag exits 2 before any model is loaded."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {requirement}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "a finite number > 0")


def _omega_list(text: str):
    entries = text.split(",")
    if "" in entries:
        raise argparse.ArgumentTypeError(
            f"omegas must list a frequency in every entry, got {text!r}")
    try:
        omegas = [float(v) for v in entries]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"omegas must be comma-separated numbers: {exc}")
    if not all(map(math.isfinite, omegas)):
        raise argparse.ArgumentTypeError(f"omegas must be finite, got {text!r}")
    return omegas


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carmakit",
        description="Exact canonical realizations, equivalence checks and "
                    "seeded simulation for rational linear state space models.")
    sub = parser.add_subparsers(dest="command", required=True)

    tf = sub.add_parser("tf", help="print the exact transfer function")
    tf.add_argument("model", help="model file (JSON)")
    tf.add_argument("-o", "--out", help="also write the report to this path")
    tf.set_defaults(func=cmd_tf)

    canon = sub.add_parser(
        "canonical", help="emit a canonical realization and its matrix fraction")
    canon.add_argument("model", help="model file (JSON)")
    canon.add_argument("--form", choices=["observer", "controller"],
                       required=True)
    canon.add_argument("-o", "--out", help="also write the report to this path")
    canon.set_defaults(func=cmd_canonical)

    equiv = sub.add_parser(
        "check-equiv", help="decide whether two models share a transfer function")
    equiv.add_argument("model1", help="first model file")
    equiv.add_argument("model2", help="second model file")
    equiv.add_argument("--simulate", choices=["cp"],
                       help="also run a shared-jump pathwise comparison")
    equiv.add_argument("--rate", type=_positive_float, default=1.0,
                       help="jump rate for --simulate cp (default 1.0)")
    equiv.add_argument("--seed", type=_nonnegative_int,
                       help="seed for --simulate cp")
    equiv.add_argument("--steps", type=_positive_int,
                       help="grid points for --simulate cp")
    equiv.add_argument("--h", type=_positive_float,
                       help="step size for --simulate cp")
    equiv.add_argument("-o", "--out", help="write the verdict report to this path")
    equiv.set_defaults(func=cmd_check_equiv)

    sim = sub.add_parser("simulate", help="simulate a seeded sample path to CSV")
    sim.add_argument("model", help="model file (JSON)")
    sim.add_argument("--driver", choices=["brownian", "cp"], required=True)
    sim.add_argument("--sigma", default="identity",
                     help="Brownian covariance: \"identity\" or a JSON matrix file")
    sim.add_argument("--rate", type=_positive_float,
                     help="jump rate (required with --driver cp)")
    sim.add_argument("--jump", default="gaussian",
                     help="jump distribution: \"gaussian\" or \"atoms:<file>\"")
    sim.add_argument("--seed", type=_nonnegative_int, required=True)
    sim.add_argument("--steps", type=_positive_int, required=True)
    sim.add_argument("--h", type=_positive_float, required=True,
                     help="grid step size")
    sim.add_argument("--init", choices=["zero", "stationary"], default="zero")
    sim.add_argument("-o", "--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    spec = sub.add_parser(
        "spectrum", help="tabulate the spectral density on given frequencies")
    spec.add_argument("model", help="model file (JSON)")
    spec.add_argument("--sigma", default="identity",
                      help="driver covariance: \"identity\" or a JSON matrix file")
    spec.add_argument("--omegas", type=_omega_list, required=True,
                      help="comma-separated frequencies")
    spec.add_argument("-o", "--out", required=True, help="output CSV path")
    spec.set_defaults(func=cmd_spectrum)

    return parser


def _validate_flag_combinations(parser, args) -> None:
    if args.command == "check-equiv" and args.simulate == "cp":
        missing = [name for name in ("seed", "steps", "h")
                   if getattr(args, name) is None]
        if missing:
            parser.error("--simulate cp requires --" + ", --".join(missing))
    if args.command == "simulate" and args.driver == "cp":
        if args.rate is None:
            parser.error("--driver cp requires --rate")
        if args.init == "stationary":
            parser.error("--init stationary is only available with "
                         "--driver brownian")


# Checked in order, so a subclass must precede any base class listed after it.
_EXIT_CODES = (
    (ModelFileError, EXIT_PARSE),
    (OutOfRange, EXIT_PARSE),
    (OSError, EXIT_PARSE),
    (DimensionMismatch, EXIT_DIMENSION),
    (DegenerateTransferFunction, EXIT_DEGENERATE),
    (UnstableModel, EXIT_UNSTABLE),
    (PoleOnEvaluationAxis, EXIT_POLE),
)
_HANDLED = tuple(exc_type for exc_type, _ in _EXIT_CODES)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_flag_combinations(parser, args)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for exc_type, code in _EXIT_CODES
                    if isinstance(exc, exc_type))


if __name__ == "__main__":
    sys.exit(main())
