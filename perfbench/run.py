"""carmakit benchmark: exact algebra, simulation and CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

One run sets up, then runs one pass of each of the three workloads in one
process, the named workload first, and spends what is left of ``--seconds``
on further passes of the named workload.  Timed samples are scaled by a
machine-speed probe (see speed.py).  It checks every output, prints each
end-to-end metric by name with its unit and sample count, and prints as its
last line the JSON result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 1`` instead runs an untraced and then a traced pass of every
workload and reports the per-layer metrics and the tracing overhead.

``--small`` runs every workload at the reduced sizes of the self-check.
``--write-pins`` rewrites pinned.json from the current code; do that only in
a change that means to alter report or CSV bytes, and say so.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every CLI
# subprocess (they inherit this environment), so two cores are not
# oversubscribed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import fixtures  # noqa: E402  (imports carmakit from this checkout's src)
from fixtures import FULL, PIN_SEED, ROOT, SMALL  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
PINS = HERE / "pinned.json"
WORKLOADS = ("algebra", "simulate", "cli")
SETUP_PROBES = 3
INTERPRETER_PROBES = 3
# The layer spans of a traced algebra or simulate pass must cover all but
# this share of the pass; the rest is the benchmark's own glue.  The gap to
# the untraced pass is reported, not checked: passes a minute apart differ
# by 10-15% on a shared two-core machine.
ACCOUNTED_SHARE = 0.05


def pin_to_one_cpu():
    """Keeps this process and every child on one CPU, so that the speed
    probe measures the CPU that the timed work runs on.  The benchmark is
    one thread and waits for each child, so it loses no parallelism."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def metric(value, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(pinned_cpu) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": _cpu_model(),
            "nproc": os.cpu_count(), "git_sha": _git_sha(), "blas": blas,
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
            "pinned_cpu": pinned_cpu}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_probes(seed: int, small: bool, workdir: Path, meter) -> list:
    """Seconds to start an interpreter, import carmakit and build every
    fixture, each time in a fresh process, scaled by the speed probe."""
    seconds = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "fixtures.py"), "--seed", str(seed),
               "--out", str(workdir / f"probe{k}")]
        if small:
            cmd.append("--small")
        elapsed, factor = meter.run(
            lambda: subprocess.run(cmd, check=True, timeout=wl.CLI_TIMEOUT_S,
                                   capture_output=True),
            sample_inside=False)
        seconds.append(elapsed * factor)
    return seconds


class Run:
    """Fixtures, directories and checks of one benchmark run."""

    def __init__(self, seed: int, sizes, workdir: Path, meter):
        self.sizes = sizes
        self.workdir = workdir
        self.meter = meter
        self.checks = wl.Checks()
        t0 = time.perf_counter()
        self.algebra_fx, self.simulate_fx, self.cli_fx = fixtures.make_all(seed, sizes)
        self.commands = wl.cli_commands(self.cli_fx, sizes)
        wl.prepare_cli_dirs(self.cli_fx, workdir / "cli")
        (workdir / "sim").mkdir(parents=True, exist_ok=True)
        self.inprocess_setup_s = time.perf_counter() - t0

    def new_pass(self, workload: str) -> tuple:
        """A fresh pass record of ``workload`` and the tasks that fill it."""
        if workload == "algebra":
            out = wl.AlgebraPass()
            return out, wl.algebra_tasks(self.algebra_fx, self.checks, out,
                                         self.meter.clock)
        if workload == "simulate":
            out = wl.SimulatePass()
            return out, wl.simulate_tasks(self.simulate_fx, self.sizes,
                                          self.workdir / "sim", self.checks, out,
                                          self.meter.clock)
        out = wl.CliRound()
        return out, wl.cli_tasks(self.commands, self.workdir / "cli", self.checks,
                                 self.sizes, out, clock=self.meter.clock)

    def check_pins(self, pins_path: Path) -> None:
        pinned = json.loads(pins_path.read_text())
        got = pinned_digests(self.workdir / "pins")
        for key in sorted(set(pinned) | set(got)):
            self.checks.record(f"pinned {key}", pinned.get(key) == got.get(key),
                               f"{got.get(key)} != pinned {pinned.get(key)}")

    def fixture_properties(self, passes: dict) -> dict:
        """Sizes of the inputs, and of what the first passes made of them."""
        alg, sim, cli_fx = self.algebra_fx, self.simulate_fx, self.cli_fx
        algebra, simulate = passes["algebra"][0], passes["simulate"][0]
        state_dims = [len(report["statespace"]["A"])
                      for _, obs, ctrl in algebra.results for report in (obs, ctrl)]
        bits = max(wl.coeff_bits(poly) for h, _, _ in algebra.results
                   for e in h.entries for poly in (e.num, e.den))
        return {
            "algebra": {"batch_models": len(alg.batch),
                        "batch_n_max": max(ss.n for ss in alg.batch),
                        "batch_m_max": max(ss.m for ss in alg.batch),
                        "batch_d_max": max(ss.d for ss in alg.batch),
                        "ladder_n": [n for n, _ in alg.ladder], "ladder_m": 3,
                        "ladder_d": 3, "max_state_dim": max(state_dims),
                        "max_tf_coeff_bits": bits},
            "simulate": {"n": sim.model.n, "m": sim.model.m, "d": sim.model.d,
                         "observer_n": sim.observer.n,
                         "steps_per_job": self.sizes.sim_steps,
                         "segments_per_job": self.sizes.sim_segments,
                         "euler_points": self.sizes.euler_points,
                         "euler_substeps": self.sizes.euler_substeps,
                         "cp_jumps": simulate.jumps["cp"],
                         "cp_pair_jumps": simulate.jumps["cp_pair"]},
            "cli": {"n": cli_fx.n, "m": cli_fx.m, "d": cli_fx.d,
                    "commands": len(self.commands)},
        }


def pinned_digests(workdir: Path) -> dict:
    """Output digests of the pinned fixtures: PIN_SEED at the reduced sizes."""
    alg, sim, cli_fx = fixtures.make_all(PIN_SEED, SMALL)
    return wl.pinned_outputs(alg, sim, cli_fx, SMALL, workdir)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def interleave(passes: list, meter) -> None:
    """Runs the tasks of several passes so that each pass is spread evenly
    over the whole interval: the next task comes from the pass that has
    done the smallest share of its tasks.

    Each task runs under the speed meter, and the samples it records are
    scaled to the probe's nominal speed (see speed.py).  A pass's wall_s is
    the unscaled sum of its tasks' times.
    """
    done = [0] * len(passes)
    while True:
        pending = [i for i, (_, tasks) in enumerate(passes) if done[i] < len(tasks)]
        if not pending:
            return
        i = min(pending, key=lambda j: (done[j] + 0.5) / len(passes[j][1]))
        out, tasks = passes[i]
        before = {key: len(values) for key, values in out.samples().items()}
        elapsed, factor = meter.run(tasks[done[i]], out.sample_inside)
        out.wall_s += elapsed
        for key, values in out.samples().items():
            for j in range(before.get(key, 0), len(values)):
                values[j] *= factor
        done[i] += 1


def measure(run: Run, focus: str, seconds: float) -> dict:
    """One pass of each workload, interleaved, then further passes of the
    focus workload while they fit in ``seconds``."""
    order = (focus,) + tuple(w for w in WORKLOADS if w != focus)
    first = {w: run.new_pass(w) for w in order}
    gc.collect()
    start = time.perf_counter()
    interleave([first[w] for w in order], run.meter)
    passes = {w: [first[w][0]] for w in WORKLOADS}
    while True:
        per_pass = statistics.median(p.wall_s for p in passes[focus])
        if time.perf_counter() - start + per_pass > seconds:
            return passes
        extra = run.new_pass(focus)
        gc.collect()
        interleave([extra], run.meter)
        passes[focus].append(extra[0])


def end_to_end(run: Run, passes: dict, setup_s: list) -> dict:
    sizes = run.sizes
    models = [t for p in passes["algebra"] for t in p.model_s]
    top = max(sizes.ladder)
    ladder = [sum(p.ladder_s[top]) for p in passes["algebra"]]
    configs = wl.sim_configs(run.simulate_fx, sizes)
    rates = {job: [wl.sim_steps(configs[job][0]) / t
                   for p in passes["simulate"] for t in p.job_s[job]]
             for job in wl.SIM_JOBS}
    kinds = [c.kind for c in run.commands]
    exact = [s for r in passes["cli"] for s, k in zip(r.seconds, kinds) if k == "exact"]
    simcmd = [s for r in passes["cli"] for s, k in zip(r.seconds, kinds) if k == "sim"]
    commands = [s for r in passes["cli"] for s in r.seconds]
    return {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "batch_models_per_s": metric(len(models) / sum(models), "1/s", len(models)),
        "batch_model_p50_ms": metric(1e3 * percentile(models, 50), "ms", len(models)),
        "batch_model_p95_ms": metric(1e3 * percentile(models, 95), "ms", len(models)),
        "ladder_n16_s": metric(statistics.median(ladder), "s", len(ladder)),
        **{f"{job}_steps_per_s": metric(statistics.median(rates[job]), "1/s",
                                        len(rates[job]))
           for job in wl.SIM_JOBS},
        "cli_exact_p50_s": metric(statistics.median(exact), "s", len(exact)),
        "cli_sim_p50_s": metric(statistics.median(simcmd), "s", len(simcmd)),
        "cli_commands_per_s": metric(len(commands) / sum(commands), "1/s",
                                     len(commands)),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced(run: Run) -> tuple:
    """An untraced and a traced pass of every workload; per-layer metrics,
    the tracer and the untraced passes."""
    tracer = Tracer()
    workdir, checks, sizes = run.workdir, run.checks, run.sizes
    untraced = {}

    def untraced_pass(workload):
        untraced[workload] = run.new_pass(workload)
        interleave([untraced[workload]], run.meter)
        untraced[workload] = untraced[workload][0]
        gc.collect()

    # Each traced pass runs right after its untraced pass, so that both see
    # the machine in the same state.
    untraced_pass("algebra")
    algebra = wl.algebra_traced(run.algebra_fx, tracer, untraced["algebra"], checks)
    untraced_pass("simulate")
    sim = wl.simulate_traced(run.simulate_fx, sizes, workdir / "sim", tracer,
                             untraced["simulate"], checks)
    untraced_pass("cli")
    cli_round = wl.CliRound()
    with tracer.span("cli"):
        for task in wl.cli_tasks(run.commands, workdir / "cli", checks, sizes,
                                 cli_round, tracer):
            task()
    inprocess = wl.cli_reference(run.commands, workdir / "cli",
                                 [untraced["cli"], cli_round], checks, tracer)
    bare, imported = wl.interpreter_probes(INTERPRETER_PROBES)

    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def count(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    layers = {}
    for name in ("exactalg.resolvent_numerator", "exactalg.cadjb",
                 "exactalg.ratmat_reduce", "realization.transfer_function",
                 "realization.tf_match", "realization.canonical_assembly",
                 "simulate.gaussian_step_params", "simulate.stationary_covariance",
                 "simulate.cp_loop", "simulate.euler_pair", "simulate.csv_write"):
        layers[name + "_s"] = metric(total(name), "s", count(name))
    layers["exactalg.max_coeff_bits"] = metric(algebra["max_coeff_bits"], "count", 1)
    layers["realization.max_state_dim"] = metric(algebra["max_state_dim"], "count", 1)
    layers["simulate.brownian_loop_s"] = metric(
        total("simulate.brownian") - total("simulate.gaussian_step_params")
        - total("simulate.stationary_covariance"), "s", count("simulate.brownian"))
    layers["simulate.cp_jumps"] = metric(sim["cp_jumps"], "count", 1)
    layers["simulate.cp_per_jump_us"] = metric(
        1e6 * total("simulate.cp_loop") / max(sim["cp_jumps"], 1), "us",
        count("simulate.cp_loop"))
    layers["simulate.csv_bytes"] = metric(sim["csv_bytes"], "count", 1)

    layers["cli.interpreter_s"] = metric(bare, "s", INTERPRETER_PROBES)
    layers["cli.import_s"] = metric(imported - bare, "s", INTERPRETER_PROBES)
    by_name = {}
    for cmd, seconds in zip(run.commands, inprocess):
        by_name.setdefault(cmd.name, []).append(seconds)
    for name, seconds in by_name.items():
        layers[f"cli.{name}_inprocess_s"] = metric(statistics.mean(seconds), "s",
                                                   len(seconds))
    startup = [sub - inp for sub, inp in zip(cli_round.seconds, inprocess)]
    layers["cli.startup_s"] = metric(statistics.median(startup), "s", len(startup))

    for workload in WORKLOADS:
        traced_wall = tracer.inclusive(workload)
        untraced_wall = untraced[workload].wall_s
        layers[f"trace.{workload}_overhead_s"] = metric(
            traced_wall - untraced_wall, "s", 1)
        if workload == "cli":
            continue
        covered = tracer.covered(workload)
        layers[f"trace.{workload}_unaccounted_s"] = metric(
            untraced_wall - covered, "s", 1)
        checks.record(f"trace {workload} layer self times account for the pass",
                      covered >= (1 - ACCOUNTED_SHARE) * traced_wall,
                      f"{covered:.3f} s of {traced_wall:.3f} s covered")
    tf_index = [c.name for c in run.commands].index("tf")
    baselines = {
        "tf_subprocess_s": cli_round.seconds[tf_index],
        "batch_tf_match_s": algebra["batch_tf_match_s"],
        "simulate_brownian_s": total("simulate.brownian"),
        "simulate_compound_poisson_s": sim["cp_job_s"],
        "euler_pair_s": total("simulate.euler_pair"),
    }
    return layers, tracer, untraced, baselines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def print_table(metrics: dict, ops_failed_ratio: float, attempted: int) -> None:
    width = max(len(name) for name in metrics) + 2
    for name, m in metrics.items():
        print(f"{name:<{width}} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}")
    print(f"{'ops_failed_ratio':<{width}} {ops_failed_ratio:>16.6g} {'ratio':<6} "
          f"n={attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-check")
    parser.add_argument("--pins", type=Path, default=PINS,
                        help="pinned digests to check against")
    parser.add_argument("--write-pins", action="store_true",
                        help="rewrite pinned.json from the current code and exit")
    args = parser.parse_args(argv)

    sizes = SMALL if args.small else FULL
    pinned_cpu = pin_to_one_cpu()
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        if args.write_pins:
            digests = pinned_digests(workdir / "pins")
            PINS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(digests)} digests to {PINS}", file=sys.stderr)
            return 0

        meter = speed.Meter()
        setup_s = [] if args.trace else setup_probes(args.seed, args.small, workdir,
                                                     meter)
        baselines = {}
        run = Run(args.seed, sizes, workdir, meter)
        if args.trace:
            metrics, tracer, passes, baselines = traced(run)
            passes = {w: [p] for w, p in passes.items()}
            spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
        else:
            passes = measure(run, args.workload, args.seconds)
            metrics = end_to_end(run, passes, setup_s)
            wl.cli_reference(run.commands, workdir / "cli", passes["cli"], run.checks)
        run.check_pins(args.pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = run.checks
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    ops_failed_ratio = checks.failed / checks.attempted
    print_table(metrics, ops_failed_ratio, checks.attempted)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "small": args.small,
              "environment": environment(pinned_cpu),
              "fixtures": run.fixture_properties(passes),
              "inprocess_setup_s": run.inprocess_setup_s, "baselines": baselines,
              "speed_probe": {"nominal_s": speed.NOMINAL_S,
                              "count": len(meter.readings),
                              "median_s": statistics.median(meter.readings),
                              "min_s": min(meter.readings),
                              "max_s": max(meter.readings)},
              "ops_failed_ratio": ops_failed_ratio, "failures": checks.failures,
              "metrics": metrics}
    (outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key]
                      for key in ("environment", "fixtures", "baselines",
                                  "speed_probe")}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
