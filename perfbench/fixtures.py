"""Seeded fixtures for the carmakit benchmark.

Every input the benchmark feeds to carmakit is drawn here from the workload
seed, so the same seed always gives the same models, files and simulation
seeds.  Nothing is read from the test suite.

Run as a script, this module is the set-up probe that ``run.py`` times:

    python3 perfbench/fixtures.py --seed 7 --out <dir>

starts an interpreter, imports carmakit (including the CLI), builds every
fixture and writes the CLI fixture files into ``<dir>``.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_carmakit():
    """Import carmakit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "carmakit" / "__init__.py").is_file():
        raise SystemExit(f"carmakit sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import carmakit
    import carmakit.cli
    if Path(carmakit.__file__).resolve().parent != SRC / "carmakit":
        raise SystemExit(f"carmakit was imported from {carmakit.__file__}, "
                         f"not from {SRC}")
    return carmakit


import_carmakit()

import numpy as np  # noqa: E402

from carmakit import cli  # noqa: E402
from carmakit.exactalg import format_rational  # noqa: E402
from carmakit.realization import (  # noqa: E402
    StateSpaceModel,
    observer_realization,
    transfer_function,
)

# The seed whose fixtures, at reduced size, have their output digests pinned
# in pinned.json.  It is independent of --seed, so the pins hold on any run.
PIN_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark run."""

    batch_models: int
    ladder: tuple
    sim_steps: int          # per simulate job, split into sim_segments paths
    sim_segments: int
    cp_rate: float
    sim_h: float
    euler_points: int
    euler_substeps: int
    cli_cp_steps: int
    cli_sim_steps: int
    cli_omegas: int


FULL = Sizes(batch_models=200, ladder=(4, 8, 12, 16), sim_steps=100_000,
             sim_segments=10, cp_rate=2.0, sim_h=0.1, euler_points=10_000,
             euler_substeps=10, cli_cp_steps=20_000, cli_sim_steps=10_000,
             cli_omegas=200)

# Reduced sizes: the benchmark's self-check, and the pinned-digest fixtures.
SMALL = Sizes(batch_models=8, ladder=(4, 6), sim_steps=2_000, sim_segments=2,
              cp_rate=2.0,
              sim_h=0.1, euler_points=200, euler_substeps=10,
              cli_cp_steps=2_000, cli_sim_steps=1_000, cli_omegas=20)


# ---------------------------------------------------------------------------
# Random exact models
# ---------------------------------------------------------------------------

def _frac(rng: random.Random, bound: int, den: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def _mat(rng, rows, cols, bound, den):
    return tuple(tuple(_frac(rng, bound, den) for _ in range(cols))
                 for _ in range(rows))


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def markov_parameters(a, b, c):
    """C A^k B for k = 0..n-1.

    They determine the transfer function of an n-state model, so two models
    with the same (m, d) have equal transfer functions iff these agree, and
    the transfer function is zero iff they all vanish.
    """
    out, ak_b = [], b
    for _ in range(len(a)):
        out.append(_matmul(c, ak_b))
        ak_b = _matmul(a, ak_b)
    return out


def _zero_tf(a, b, c) -> bool:
    return all(x == 0 for blk in markov_parameters(a, b, c)
               for row in blk for x in row)


def random_rational_model(rng, n, m, d) -> StateSpaceModel:
    """Entries p/q with |p| <= 9 and 1 <= q <= 9, redrawn until the transfer
    function is nonzero (the law of the acceptance-gate generator)."""
    while True:
        a, b, c = _mat(rng, n, n, 9, 9), _mat(rng, n, m, 9, 9), _mat(rng, d, n, 9, 9)
        if not _zero_tf(a, b, c):
            return StateSpaceModel(a=a, b=b, c=c)


def random_stable_model(rng, n, m, d) -> StateSpaceModel:
    """Entries p/q with |p| <= 3 and 1 <= q <= 3; the drift's diagonal is
    shifted by ceil(max Re eig) + 1 so every eigenvalue has real part <= -1."""
    while True:
        a = [list(row) for row in _mat(rng, n, n, 3, 3)]
        eigs = np.linalg.eigvals(np.array([[float(x) for x in r] for r in a]))
        shift = int(math.ceil(eigs.real.max())) + 1
        for i in range(n):
            a[i][i] -= shift
        a = tuple(tuple(row) for row in a)
        b, c = _mat(rng, n, m, 3, 3), _mat(rng, d, n, 3, 3)
        if not _zero_tf(a, b, c):
            return StateSpaceModel(a=a, b=b, c=c)


def _distinct_variant(ss: StateSpaceModel) -> StateSpaceModel:
    """The model with one output entry raised by 1, chosen so that the
    transfer function changes."""
    reference = markov_parameters(ss.a, ss.b, ss.c)
    for i in range(ss.d):
        for j in range(ss.n):
            c = [list(row) for row in ss.c]
            c[i][j] += 1
            if markov_parameters(ss.a, ss.b, c) != reference:
                return StateSpaceModel(a=ss.a, b=ss.b, c=c)
    raise ValueError("model output does not depend on its state")


# ---------------------------------------------------------------------------
# Fixtures of the three workloads
# ---------------------------------------------------------------------------

@dataclass
class AlgebraFixture:
    batch: list           # StateSpaceModel, n <= 6, m, d <= 3
    ladder: list          # (n, StateSpaceModel), m = d = 3


@dataclass
class SimulateFixture:
    model: StateSpaceModel     # n = 3, m = d = 2, stable
    observer: StateSpaceModel  # observer form of model, dimension 6
    seeds: dict                # job name -> one SimulationConfig seed per segment


@dataclass
class CliFixture:
    files: dict                # file name -> bytes, written to the fixture dir
    seeds: dict                # command name -> --seed value
    omegas: str                # the --omegas argument
    n: int
    m: int
    d: int


def _stream(seed: int, label: str) -> random.Random:
    return random.Random(f"carmakit-bench/{seed}/{label}")


def batch_dims(count: int) -> list:
    """The (n, m, d) of each batch model, before shuffling.

    Every combination with n <= 6 and m, d <= 3 appears count // 54 times,
    and count % 54 combinations spread evenly over the grid appear once
    more.  The multiset of sizes is thus the same for every seed, so the
    batch's timing percentiles measure the code, not the draw of sizes.
    """
    combos = [(n, m, d) for n in range(1, 7) for m in range(1, 4) for d in range(1, 4)]
    extra = count % len(combos)
    return (combos * (count // len(combos))
            + [combos[k * len(combos) // extra] for k in range(extra)])


def make_algebra(seed: int, sizes: Sizes) -> AlgebraFixture:
    rng = _stream(seed, "algebra")
    dims = batch_dims(sizes.batch_models)
    rng.shuffle(dims)
    batch = [random_rational_model(rng, n, m, d) for n, m, d in dims]
    ladder = [(n, random_rational_model(rng, n, 3, 3)) for n in sizes.ladder]
    return AlgebraFixture(batch=batch, ladder=ladder)


def _observer_form(ss: StateSpaceModel) -> StateSpaceModel:
    real, _ = observer_realization(transfer_function(ss))
    return real.statespace


def make_simulate(seed: int, sizes: Sizes) -> SimulateFixture:
    rng = _stream(seed, "simulate")
    ss = random_stable_model(rng, 3, 2, 2)
    seeds = {job: [rng.randrange(2 ** 32) for _ in range(sizes.sim_segments)]
             for job in ("brownian", "cp", "cp_pair", "euler_pair")}
    return SimulateFixture(model=ss, observer=_observer_form(ss), seeds=seeds)


def _json_bytes(obj) -> bytes:
    return cli.canonical_dumps(obj).encode()


def statespace_json(ss: StateSpaceModel) -> dict:
    """The model as a "statespace" model file, as the CLI reports it."""
    rows = lambda mat: [[format_rational(x) for x in row] for row in mat]
    return {"kind": "statespace", "A": rows(ss.a), "B": rows(ss.b), "C": rows(ss.c)}


def _statespace_file(ss: StateSpaceModel) -> bytes:
    return _json_bytes(statespace_json(ss))


def make_cli(seed: int, sizes: Sizes) -> CliFixture:
    rng = _stream(seed, "cli")
    ss = random_stable_model(rng, 3, 2, 2)
    files = {"model.json": _statespace_file(ss),
             "observer.json": _statespace_file(_observer_form(ss)),
             "distinct.json": _statespace_file(_distinct_variant(ss))}
    seeds = {cmd: rng.randrange(2 ** 31)
             for cmd in ("check_equiv_cp", "simulate_brownian", "simulate_cp")}
    omegas = ",".join(f"{0.05 * k:.2f}" for k in range(sizes.cli_omegas))
    return CliFixture(files=files, seeds=seeds, omegas=omegas,
                      n=ss.n, m=ss.m, d=ss.d)


def write_files(files: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def make_all(seed: int, sizes: Sizes):
    return (make_algebra(seed, sizes), make_simulate(seed, sizes),
            make_cli(seed, sizes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory for the CLI fixture files")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    _, _, cli_fx = make_all(args.seed, SMALL if args.small else FULL)
    write_files(cli_fx.files, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
