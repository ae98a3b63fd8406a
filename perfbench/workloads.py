"""The three benchmark workloads, each as an untraced and a traced pass.

An untraced pass calls carmakit the way a user does and times it.  A traced
pass makes the same calls split at layer boundaries: it calls the public
functions of ``carmakit.exactalg``, ``carmakit.realization``,
``carmakit.simulate`` and ``carmakit.cli`` in the order that
``transfer_function``, ``report_canonical``, the ``simulate_*`` functions and
``cli.main`` compose them, with a span around each call, and checks that the
composed results equal the untraced ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from carmakit import cli
from carmakit.exactalg import (
    PolyMatrix,
    ratmat_equal,
    ratmat_reduce,
    resolvent_numerator,
)
from carmakit.realization import (
    controller_realization,
    observer_realization,
    transfer_function,
)
from carmakit.simulate import (
    GaussianJumps,
    LevyDriverSpec,
    SimulationConfig,
    draw_compound_poisson_jumps,
    gaussian_step_params,
    simulate_brownian,
    simulate_compound_poisson,
    simulate_compound_poisson_pair,
    simulate_shared_brownian_pair,
    stationary_covariance,
)

from fixtures import SRC, statespace_json, write_files
from spans import NO_TRACE

GAP_BOUND = 1e-8
BATCH_CHUNK = 20
CLI_TIMEOUT_S = 120


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Output checks of one run; each operation counts once."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _rel_gap(y1: np.ndarray, y2: np.ndarray) -> float:
    scale = float(max(np.max(np.abs(y1)), np.max(np.abs(y2))))
    return float(np.max(np.abs(y1 - y2))) / scale if scale > 0 else 0.0


def _path_ok(path, steps: int, d: int) -> bool:
    return (path.times.shape == (steps,) and path.outputs.shape == (steps, d)
            and bool(np.all(np.isfinite(path.outputs))))


# ---------------------------------------------------------------------------
# algebra: what `carmakit canonical` does for both forms, per model
# ---------------------------------------------------------------------------

def canonical_bytes(ss) -> tuple:
    """Transfer function, both canonical reports, and their report bytes."""
    h = transfer_function(ss)
    obs = cli.report_canonical("observer", h)
    ctrl = cli.report_canonical("controller", h)
    return h, obs, ctrl, (cli.canonical_dumps(obs)
                          + cli.canonical_dumps(ctrl)).encode()


@dataclass
class AlgebraPass:
    model_s: list = field(default_factory=list)    # batch, one per model
    ladder_s: dict = field(default_factory=dict)   # n -> seconds per stage
    results: list = field(default_factory=list)    # (h, obs, ctrl), batch then ladder
    wall_s: float = 0.0

    sample_inside = True

    def samples(self) -> dict:
        return {"batch": self.model_s, **self.ladder_s}


def algebra_tasks(fx, checks: Checks, out: AlgebraPass,
                  clock=time.perf_counter) -> list:
    """Batch chunks, then each ladder rung as three stages -- transfer
    function, observer report, controller report -- that run as separate
    tasks, so that a rung's time is sampled at three points of the run."""
    def run_batch(items):
        for key, ss in items:
            t0 = clock()
            h, obs, ctrl, _ = canonical_bytes(ss)
            out.model_s.append(clock() - t0)
            out.results.append((h, obs, ctrl))
            checks.record(f"algebra batch {key} tf_match",
                          obs["tf_match"] is True and ctrl["tf_match"] is True)

    def run_stage(n, ss, stage, done):
        t0 = clock()
        if stage == "tf":
            done[stage] = transfer_function(ss)
        else:
            done[stage] = cli.report_canonical(stage, done["tf"])
            cli.canonical_dumps(done[stage])
        out.ladder_s.setdefault(n, []).append(clock() - t0)
        if stage == "controller":
            obs, ctrl = done["observer"], done["controller"]
            out.results.append((done["tf"], obs, ctrl))
            checks.record(f"algebra ladder n={n} tf_match",
                          obs["tf_match"] is True and ctrl["tf_match"] is True)

    batch = list(enumerate(fx.batch))
    tasks = [functools.partial(run_batch, batch[i:i + BATCH_CHUNK])
             for i in range(0, len(batch), BATCH_CHUNK)]
    for n, ss in fx.ladder:
        done = {}
        tasks += [functools.partial(run_stage, n, ss, stage, done)
                  for stage in ("tf", "observer", "controller")]
    return tasks


def coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


def _traced_tf(tracer, ss, charpolys: list):
    """transfer_function(ss), one span per exactalg step."""
    with tracer.span("exactalg.resolvent_numerator"):
        adjugate, charpoly = resolvent_numerator(ss.a)
    with tracer.span("exactalg.cadjb"):
        num = (PolyMatrix.from_scalar_matrix(ss.c) @ adjugate
               @ PolyMatrix.from_scalar_matrix(ss.b))
    with tracer.span("exactalg.ratmat_reduce"):
        h = ratmat_reduce(num, charpoly)
    charpolys.append(charpoly)
    return h


def algebra_traced(fx, tracer, reference: AlgebraPass, checks: Checks) -> dict:
    """Traced algebra pass; returns its counts."""
    models = list(fx.batch) + [ss for _, ss in fx.ladder]
    charpolys, composed = [], []
    with tracer.span("algebra"):
        for i, ss in enumerate(models):
            if i == len(fx.batch):
                ladder_first = len(tracer.spans)
            with tracer.span("realization.transfer_function"):
                h = _traced_tf(tracer, ss, charpolys)
            forms = []
            for realize in (observer_realization, controller_realization):
                with tracer.span("realization.canonical_assembly"):
                    real, _ = realize(h)
                with tracer.span("realization.tf_match"):
                    match = ratmat_equal(_traced_tf(tracer, real.statespace,
                                                    charpolys), h)
                forms.append((real.statespace, match))
            composed.append((h, forms))
    max_dim, bits = 0, max(coeff_bits(p) for p in charpolys)
    for (h, forms), (h_ref, obs, ctrl) in zip(composed, reference.results):
        bits = max([bits] + [coeff_bits(e.num) for e in h.entries]
                   + [coeff_bits(e.den) for e in h.entries])
        same = ratmat_equal(h, h_ref)
        for (statespace, match), report in zip(forms, (obs, ctrl)):
            max_dim = max(max_dim, statespace.n)
            same = (same and match == report["tf_match"]
                    and statespace_json(statespace) == report["statespace"])
        checks.record("algebra traced composition equals untraced", same)
    batch_tf_match = (tracer.inclusive("realization.tf_match")
                      - tracer.totals(ladder_first)["realization.tf_match"][0])
    return {"max_state_dim": max_dim, "max_coeff_bits": bits,
            "batch_tf_match_s": batch_tf_match}


# ---------------------------------------------------------------------------
# simulate: four jobs on one stable model and its observer form
# ---------------------------------------------------------------------------

SIM_JOBS = ("brownian", "cp", "cp_pair", "euler_pair")


def sim_configs(fx, sizes) -> dict:
    """job -> one SimulationConfig per segment."""
    steps = {"brownian": sizes.sim_steps, "cp": sizes.sim_steps,
             "cp_pair": sizes.sim_steps, "euler_pair": sizes.euler_points}
    return {job: [SimulationConfig(
                step_size=sizes.sim_h, steps=steps[job] // sizes.sim_segments,
                seed=seed, init="stationary" if job == "brownian" else "zero",
                euler_substeps=sizes.euler_substeps if job == "euler_pair" else 1)
                  for seed in fx.seeds[job]]
            for job in SIM_JOBS}


def cp_driver(fx, sizes) -> LevyDriverSpec:
    m = fx.model.m
    return LevyDriverSpec.compound_poisson(
        rate=sizes.cp_rate, jumps=GaussianJumps(mean=np.zeros(m), cov=np.eye(m)))


def sim_steps(cfg) -> int:
    """Steps a job advances each model: grid steps, or fine Euler steps."""
    return (cfg.steps - 1) * cfg.euler_substeps


@dataclass
class SimulatePass:
    job_s: dict = field(default_factory=dict)      # job -> seconds per segment
    digests: dict = field(default_factory=dict)    # "job.segment" -> sha256
    jumps: dict = field(default_factory=dict)      # job -> jump count
    wall_s: float = 0.0

    sample_inside = True

    def samples(self) -> dict:
        return self.job_s


def _horizon(cfg) -> float:
    return (cfg.steps - 1) * cfg.step_size


def _outputs_digest(path) -> str:
    return sha256(np.ascontiguousarray(path.outputs).tobytes())


def simulate_tasks(fx, sizes, workdir: Path, checks: Checks,
                   out: SimulatePass, clock=time.perf_counter) -> list:
    """One task per job and segment, the four jobs taking turns."""
    ss, obs = fx.model, fx.observer
    sigma = np.eye(ss.m)
    driver = cp_driver(fx, sizes)
    configs = sim_configs(fx, sizes)

    def csv_done(name, path, cfg):
        csv = workdir / f"{name}.csv"
        checks.record(f"simulate {name} path", _path_ok(path, cfg.steps, ss.d))
        out.digests[name] = sha256(csv.read_bytes())

    def pair_done(name, p1, p2, cfg):
        gap = _rel_gap(p1.outputs, p2.outputs)
        checks.record(f"simulate {name}", _path_ok(p1, cfg.steps, ss.d)
                      and _path_ok(p2, cfg.steps, ss.d) and gap <= GAP_BOUND,
                      f"relative gap {gap:.3e}")
        out.digests[name] = _outputs_digest(p1) + _outputs_digest(p2)

    def run(job, k):
        cfg, name = configs[job][k], f"{job}.{k}"
        t0 = clock()
        if job == "brownian":
            path = simulate_brownian(ss, sigma, cfg)
            path.to_csv(workdir / f"{name}.csv")
        elif job == "cp":
            times, sizes_ = draw_compound_poisson_jumps(driver, _horizon(cfg), cfg)
            path = simulate_compound_poisson(ss, times, sizes_, cfg)
            path.to_csv(workdir / f"{name}.csv")
        elif job == "cp_pair":
            p1, p2 = simulate_compound_poisson_pair(ss, obs, driver, cfg)
        else:
            p1, p2 = simulate_shared_brownian_pair(ss, obs, sigma, cfg)
        out.job_s.setdefault(job, []).append(clock() - t0)
        if job in ("brownian", "cp"):
            csv_done(name, path, cfg)
        else:
            pair_done(name, p1, p2, cfg)
        if job in ("cp", "cp_pair"):
            out.jumps[job] = out.jumps.get(job, 0) + len(
                draw_compound_poisson_jumps(driver, _horizon(cfg), cfg)[0])

    return [functools.partial(run, job, k)
            for k in range(sizes.sim_segments) for job in SIM_JOBS]


def simulate_traced(fx, sizes, workdir: Path, tracer,
                    reference: SimulatePass, checks: Checks) -> dict:
    """Traced simulate pass; returns its counts.

    ``simulate_brownian`` calls ``stationary_covariance`` and
    ``gaussian_step_params`` internally, so those two are also timed by a
    call of their own; the Brownian loop is the rest of ``simulate_brownian``.
    ``simulate_compound_poisson_pair`` is composed from its draw and one
    ``simulate_compound_poisson`` per model.
    """
    ss, obs = fx.model, fx.observer
    sigma = np.eye(ss.m)
    driver = cp_driver(fx, sizes)
    configs = sim_configs(fx, sizes)
    digests, cp_jumps, csv_bytes, cp_job_s = {}, 0, 0, 0.0
    with tracer.span("simulate"):
        for k in range(sizes.sim_segments):
            cfg = configs["brownian"][k]
            with tracer.span("simulate.stationary_covariance"):
                stationary_covariance(ss, sigma)
            with tracer.span("simulate.gaussian_step_params"):
                gaussian_step_params(ss, sigma, cfg.step_size)
            with tracer.span("simulate.brownian"):
                path = simulate_brownian(ss, sigma, cfg)
            with tracer.span("simulate.csv_write"):
                path.to_csv(workdir / f"brownian.{k}.csv")

            cfg = configs["cp"][k]
            with tracer.span("simulate.cp_draw"):
                times, sizes_ = draw_compound_poisson_jumps(driver, _horizon(cfg), cfg)
            cp_job_s += tracer.last_duration()
            with tracer.span("simulate.cp_loop"):
                path = simulate_compound_poisson(ss, times, sizes_, cfg)
            cp_job_s += tracer.last_duration()
            cp_jumps += len(times)
            with tracer.span("simulate.csv_write"):
                path.to_csv(workdir / f"cp.{k}.csv")

            cfg = configs["cp_pair"][k]
            with tracer.span("simulate.cp_draw"):
                times, sizes_ = draw_compound_poisson_jumps(driver, _horizon(cfg), cfg)
            pair = []
            for model in (ss, obs):
                with tracer.span("simulate.cp_loop"):
                    pair.append(simulate_compound_poisson(model, times, sizes_, cfg))
                cp_jumps += len(times)
            digests[f"cp_pair.{k}"] = _outputs_digest(pair[0]) + _outputs_digest(pair[1])

            cfg = configs["euler_pair"][k]
            with tracer.span("simulate.euler_pair"):
                e1, e2 = simulate_shared_brownian_pair(ss, obs, sigma, cfg)
            digests[f"euler_pair.{k}"] = _outputs_digest(e1) + _outputs_digest(e2)

    for k in range(sizes.sim_segments):
        for job in ("brownian", "cp"):
            data = (workdir / f"{job}.{k}.csv").read_bytes()
            csv_bytes += len(data)
            digests[f"{job}.{k}"] = sha256(data)
    for name, digest in sorted(digests.items()):
        checks.record(f"simulate traced {name} equals untraced",
                      digest == reference.digests[name])
    return {"cp_jumps": cp_jumps, "csv_bytes": csv_bytes, "cp_job_s": cp_job_s}


# ---------------------------------------------------------------------------
# cli: one closed-loop client running the subcommands as subprocesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str        # span and metric stem
    kind: str        # "exact" or "sim"
    args: tuple      # argv after the program name
    exit_code: int
    files: tuple     # output files the command writes


def cli_commands(fx, sizes) -> list:
    """The round of subcommands, with paths relative to the run directory."""
    model, obs = "../fx/model.json", "../fx/observer.json"
    distinct = "../fx/distinct.json"
    h = repr(sizes.sim_h)
    rate = repr(sizes.cp_rate)
    s = {k: str(v) for k, v in fx.seeds.items()}
    return [
        Command("tf", "exact", ("tf", model, "-o", "tf.json"), 0, ("tf.json",)),
        Command("canonical", "exact",
                ("canonical", model, "--form", "observer", "-o", "observer.json"),
                0, ("observer.json",)),
        Command("canonical", "exact",
                ("canonical", model, "--form", "controller", "-o", "controller.json"),
                0, ("controller.json",)),
        Command("check_equiv", "exact",
                ("check-equiv", model, obs, "-o", "equal.json"), 0, ("equal.json",)),
        Command("check_equiv", "exact",
                ("check-equiv", model, distinct, "-o", "distinct.json"), 1,
                ("distinct.json",)),
        Command("check_equiv_cp", "sim",
                ("check-equiv", model, obs, "--simulate", "cp", "--rate", rate,
                 "--seed", s["check_equiv_cp"], "--steps", str(sizes.cli_cp_steps),
                 "--h", h, "-o", "equal_cp.json"), 0, ("equal_cp.json",)),
        Command("simulate", "sim",
                ("simulate", model, "--driver", "brownian",
                 "--seed", s["simulate_brownian"], "--steps", str(sizes.cli_sim_steps),
                 "--h", h, "-o", "brownian.csv"), 0,
                ("brownian.csv", "brownian.csv.meta.json")),
        Command("simulate", "sim",
                ("simulate", model, "--driver", "cp", "--rate", rate,
                 "--seed", s["simulate_cp"], "--steps", str(sizes.cli_sim_steps),
                 "--h", h, "-o", "cp.csv"), 0, ("cp.csv", "cp.csv.meta.json")),
        Command("spectrum", "sim",
                ("spectrum", model, "--omegas", fx.omegas, "-o", "spectrum.csv"), 0,
                ("spectrum.csv",)),
    ]


def cli_env() -> dict:
    """Environment of every CLI subprocess: this checkout's sources, and the
    benchmark's own BLAS/OpenMP thread pinning (inherited from os.environ)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare_cli_dirs(fx, base: Path) -> None:
    """``base/fx`` holds the fixture files; commands run in a sibling dir."""
    write_files(fx.files, base / "fx")


def _outputs(cmd: Command, rundir: Path, stdout: bytes) -> dict:
    out = {"stdout": stdout}
    for name in cmd.files:
        out[name] = (rundir / name).read_bytes()
    return out


def run_subprocess(cmd: Command, rundir: Path, clock=time.perf_counter):
    """(seconds, exit code, outputs, stderr) of one subcommand as a process."""
    rundir.mkdir(parents=True, exist_ok=True)
    t0 = clock()
    proc = subprocess.run([sys.executable, "-m", "carmakit.cli", *cmd.args],
                          cwd=rundir, env=cli_env(), capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    elapsed = clock() - t0
    ok = proc.returncode == cmd.exit_code
    outputs = _outputs(cmd, rundir, proc.stdout) if ok else {}
    return elapsed, proc.returncode, outputs, proc.stderr


def run_inprocess(cmd: Command, rundir: Path):
    """(seconds, exit code, outputs) of ``cli.main(argv)`` in this process."""
    rundir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(cmd.args))
        elapsed = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return elapsed, code, _outputs(cmd, rundir, buffer.getvalue().encode())


def _check_semantics(cmd: Command, outputs: dict, sizes) -> str:
    """Why the outputs of one command are wrong, or "" if they are right."""
    stdout = outputs["stdout"].decode()
    if cmd.args[0] in ("tf", "canonical"):
        report_name = cmd.files[0]
        if outputs[report_name] != outputs["stdout"]:
            return "report file differs from stdout"
        if cmd.args[0] == "canonical" and '"tf_match": true' not in stdout:
            return "tf_match is not true"
    elif cmd.args[0] == "check-equiv":
        verdict = "DISTINCT" if cmd.exit_code == 1 else "EQUIVALENT"
        if stdout.split("\n", 1)[0] != verdict:
            return f"verdict is not {verdict}"
        if "--simulate" in cmd.args:
            gap = float(stdout.split("relative_gap ", 1)[1].split()[0])
            if not gap <= GAP_BOUND:
                return f"relative gap {gap:.3e}"
    else:
        table = outputs[cmd.files[0]].decode().splitlines()
        rows = sizes.cli_omegas if cmd.args[0] == "spectrum" else sizes.cli_sim_steps
        if len(table) != rows + 1:
            return f"{len(table) - 1} rows, expected {rows}"
        values = np.array([[float(v) for v in line.split(",")] for line in table[1:]])
        if not np.all(np.isfinite(values)):
            return "non-finite values"
    return ""


@dataclass
class CliRound:
    seconds: list = field(default_factory=list)   # per command, subprocess
    outputs: list = field(default_factory=list)   # per command, or None
    wall_s: float = 0.0

    sample_inside = False   # waits on a child on this CPU: probe only around it

    def samples(self) -> dict:
        return {"commands": self.seconds}


def cli_tasks(commands: list, base: Path, checks: Checks, sizes, out: CliRound,
              tracer=NO_TRACE, clock=time.perf_counter) -> list:
    """One task per command of the round."""
    def run(cmd):
        with tracer.span(f"cli.subprocess.{cmd.name}"):
            elapsed, code, outputs, stderr = run_subprocess(cmd, base / "run", clock)
        out.seconds.append(elapsed)
        ok = code == cmd.exit_code and not stderr
        detail = f"exit {code}, stderr {stderr[-200:]!r}"
        if ok:
            detail = _check_semantics(cmd, outputs, sizes)
            ok = not detail
        checks.record(f"cli {' '.join(cmd.args[:4])}", ok, detail)
        out.outputs.append(outputs if ok else None)

    return [functools.partial(run, cmd) for cmd in commands]


def cli_reference(commands: list, base: Path, rounds: list, checks: Checks,
                  tracer=NO_TRACE) -> list:
    """Runs every command once in-process and checks that each subprocess
    round wrote the same bytes.  Returns the in-process seconds."""
    seconds = []
    for i, cmd in enumerate(commands):
        with tracer.span(f"cli.inprocess.{cmd.name}"):
            elapsed, code, outputs = run_inprocess(cmd, base / "ref")
        seconds.append(elapsed)
        same = code == cmd.exit_code and all(r.outputs[i] == outputs for r in rounds)
        checks.record(f"cli {cmd.name} subprocess bytes equal cli.main bytes", same)
    return seconds


def interpreter_probes(count: int) -> tuple:
    """Median seconds of a bare interpreter and of ``import carmakit.cli``."""
    def timed(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                       timeout=CLI_TIMEOUT_S, capture_output=True)
        return time.perf_counter() - t0
    bare = statistics.median(timed("pass") for _ in range(count))
    imported = statistics.median(timed("import carmakit.cli") for _ in range(count))
    return bare, imported


# ---------------------------------------------------------------------------
# Pinned output bytes
# ---------------------------------------------------------------------------

def pinned_outputs(algebra_fx, simulate_fx, cli_fx, sizes, workdir: Path) -> dict:
    """Digests of the report, CSV and CLI bytes of the pinned fixtures."""
    digests = {}
    for i, ss in enumerate(algebra_fx.batch):
        digests[f"algebra/batch/{i:02d}"] = sha256(canonical_bytes(ss)[3])
    for n, ss in algebra_fx.ladder:
        digests[f"algebra/ladder/n{n}"] = sha256(canonical_bytes(ss)[3])

    sim_dir = workdir / "sim"
    sim_dir.mkdir(parents=True, exist_ok=True)
    sim = SimulatePass()
    for task in simulate_tasks(simulate_fx, sizes, sim_dir, Checks(), sim):
        task()
    for name, digest in sim.digests.items():
        digests[f"simulate/{name}"] = digest

    prepare_cli_dirs(cli_fx, workdir / "cli")
    for i, cmd in enumerate(cli_commands(cli_fx, sizes)):
        _, code, outputs = run_inprocess(cmd, workdir / "cli" / "ref")
        digests[f"cli/{i}-{cmd.args[0]}/exit"] = str(code)
        for name, data in outputs.items():
            digests[f"cli/{i}-{cmd.args[0]}/{name}"] = sha256(data)
    return digests
