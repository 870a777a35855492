"""The three benchmark workloads.

Each workload turns a seed into an endless, deterministic list of jobs;
job(k, rec) runs job k, times it, checks its output and adds the result
to a Record.  A job is the unit of the closed loop: one caller, and the
next job starts when the previous one has returned.  Library and CLI
functions are always looked up through their module at call time, so a
tracer installed into the modules sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mayleonard.cli as cli
import mayleonard.closed_form as closed_form
import mayleonard.constraints as constraints
import mayleonard.integrate as integrate
import mayleonard.model as model
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Instance seeds of run seed s are s * SEED_STRIDE + k, so runs with
# different seeds share no instance.
SEED_STRIDE = 1_000_000

# The acceptance grid: 101 points over [0, min(5, t* - 0.1)].
GRID_T_END = 5.0
GRID_POINTS = 101
POLE_GAP = 0.1
VERIFY_TOL = 1e-10
ORACLE_RTOL = 1e-8
SOLVE_RTOL = 1e-9

MODES = ("real", "complex")
MAX_PROBLEMS = 5


@dataclass
class Record:
    """Timings and outcome counts of the jobs run so far."""

    instance_ms: list = field(default_factory=list)
    cmd_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    child_stamps: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class _LineClock(io.TextIOBase):
    """A stdout stand-in that timestamps every completed line."""

    def __init__(self, on_line):
        self._buf = ""
        self._on_line = on_line

    def writable(self):
        return True

    def write(self, text):
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self._on_line(line, time.perf_counter())
        return len(text)


class _Workload:
    """A seed's job list; job(k, rec) runs, times and checks job k."""

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def warm_up(self):
        """Run job 0 once, untimed and unchecked, so first-call costs stay out."""
        self.job(0, Record())


class VerifyBatch(_Workload):
    """`mayleonard verify --batch 100` in-process, once real and once complex per job.

    Per-instance times are the gaps between the command's `seed k:` lines.
    """

    BATCH = 100
    # A traced run of 30 s covers one job: two commands, 200 instances.
    TRACE_JOBS_PER_S = 1 / 30

    def warm_up(self):
        for mode in MODES:
            self._command(mode, self.seed * SEED_STRIDE, 1, 0, Record())

    def job(self, k, rec):
        base = self.seed * SEED_STRIDE + k * self.BATCH
        for m, mode in enumerate(MODES):
            self._command(mode, base, self.BATCH, (2 * k + m) * self.BATCH, rec)

    def _command(self, mode, base, batch, first_instance, rec):
        argv = ["verify", "--batch", str(batch), "--seed", str(base), "--mode", mode]
        lines = []
        if self.tracer is not None:
            self.tracer.instance = first_instance
        start = time.perf_counter()
        last = [start]

        def on_line(line, now):
            lines.append(line)
            rec.instance_ms.append((now - last[0]) * 1e3)
            last[0] = now
            if self.tracer is not None:
                self.tracer.instance += 1

        with contextlib.redirect_stdout(_LineClock(on_line)), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        rec.cmd_ms.append((time.perf_counter() - start) * 1e3)
        lines += ["<missing>"] * (batch - len(lines))
        bad = [i for i in range(batch) if not lines[i].startswith(f"seed {base + i}: ok ")]
        if rc != 0 and not bad:  # the command failed without naming an instance
            bad = range(batch)
        rec.attempted += batch
        for i in bad:
            rec.fail(f"{' '.join(argv)} (exit {rc}): {lines[i]} {err.getvalue().strip()}")


def acceptance_grid(sol, mode):
    t_star = closed_form.blow_up_time(sol) if mode == "real" else None
    t_hi = GRID_T_END if t_star is None else min(GRID_T_END, t_star - POLE_GAP)
    if t_hi <= 0.0:
        return [0.0]
    return [float(t) for t in np.linspace(0.0, t_hi, GRID_POINTS)]


class ClosedFormCorpus(_Workload):
    """Generate, build, certify and sample one ray per job; no integration."""

    TRACE_JOBS_PER_S = 20.0

    def job(self, k, rec):
        mode = MODES[k % 2]
        seed = self.seed * SEED_STRIDE + k
        if self.tracer is not None:
            self.tracer.instance = k
        start = time.perf_counter()
        params, x0 = constraints.random_admissible_instance(seed, mode=mode)
        sol = closed_form.make_special(params, x0)
        grid = acceptance_grid(sol, mode)
        report = closed_form.verify_special(params, sol, grid, tol=VERIFY_TOL)
        samples = [closed_form.eval_special(sol, t) for t in grid]
        elapsed = (time.perf_counter() - start) * 1e3
        rec.instance_ms.append(elapsed)
        rec.cmd_ms.append(elapsed)
        rec.attempted += 1
        if not (report.passed and len(samples) == len(grid)):
            rec.fail(f"{mode} seed {seed}: verify_special max_relative "
                     f"{report.max_relative:.3e} > {VERIFY_TOL}")


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _ray_state(a, eta, x0, t):
    """Benchmark-owned closed form x0 / D(t) of the ray through x0."""
    z = np.mean(a @ x0)
    decay = np.exp(-eta * t)
    return x0 / (decay + (z / eta) * (1.0 - decay))


class CliCold(_Workload):
    """One fresh `python -m mayleonard.cli` process per command.

    Commands cycle through simulate, special, solve and verify, each on a
    complex config built from the seed at set-up.  With a tracer, commands
    run under bench/child.py instead, which stamps interpreter start,
    import and command times and returns the command's spans.
    """

    CONFIGS = 4
    COMMANDS = ("simulate", "special", "solve", "verify")
    STATE_PAIRS = (("x1", "x2"), ("x2", "x3"), ("x1", "x3"))
    TRACE_JOBS_PER_S = 1.5
    TIMEOUT_S = 60

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.env = child_env()
        self.dir = OUT_DIR / f"cli-cold-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = [self._write_config(j) for j in range(self.CONFIGS)]

    def _write_config(self, j):
        params, x0 = constraints.random_admissible_instance(
            self.seed * SEED_STRIDE + j, mode="complex")
        a = np.asarray(params.a)
        names = ("a12", "a13", "a21", "a23", "a31", "a32")
        couplings = dict(zip(names, (a[0, 1], a[0, 2], a[1, 0], a[1, 2], a[2, 0], a[2, 1])))
        run = {"mode": "complex", "eta": _pair(params.eta),
               "couplings": {k: _pair(v) for k, v in couplings.items()},
               "x0": [_pair(v) for v in x0], "t_span": [0.0, GRID_T_END]}
        unknowns = self.STATE_PAIRS[j % len(self.STATE_PAIRS)]
        slots = dict(couplings, x1=x0[0], x2=x0[1], x3=x0[2])
        request = {"mode": "complex", "unknowns": list(unknowns),
                   "known": {k: _pair(v) for k, v in slots.items() if k not in unknowns}}
        files = {"adaptive": dict(run, method="adaptive"),
                 "closed-form": dict(run, method="closed-form", grid_points=501),
                 "request": request}
        paths = {}
        for kind, doc in files.items():
            path = self.dir / f"{j}-{kind}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[kind] = str(path.relative_to(ROOT))
        expect = {"x_end": _ray_state(a, complex(params.eta), np.asarray(x0), GRID_T_END),
                  "solution": [complex(slots[u]) for u in unknowns]}
        return paths, expect

    def job(self, k, rec):
        command = self.COMMANDS[k % len(self.COMMANDS)]
        paths, expect = self.configs[(k // len(self.COMMANDS)) % self.CONFIGS]
        argv = {"simulate": ["simulate", paths["adaptive"]],
                "special": ["special", paths["closed-form"], "--format", "json"],
                "solve": ["solve", paths["request"]],
                "verify": ["verify", paths["adaptive"]]}[command]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "mayleonard.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(k), *argv]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=self.TIMEOUT_S)
        elapsed = (time.monotonic() - start) * 1e3
        rec.cmd_ms.append(elapsed)
        rec.instance_ms.append(elapsed)
        rec.attempted += 1
        stderr = proc.stderr
        if self.tracer is not None:
            stderr = self._take_child_report(stderr, start, k, rec)
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}: {stderr.strip()}"
        else:
            try:
                problem = getattr(self, f"_check_{command}")(proc.stdout, expect)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output ({exc!r})"
        if problem:
            rec.fail(f"{command} {argv[1]}: {problem}")

    def _take_child_report(self, stderr, start, k, rec):
        head, _, last = stderr.rstrip("\n").rpartition("\n")
        if not last.startswith("{"):
            rec.fail(f"child {k} sent no report")
            return stderr
        report = json.loads(last)
        rec.child_stamps.append(((report["t_start"] - start) * 1e3,
                                 report["import_s"] * 1e3, report["command_s"] * 1e3))
        self.tracer.extend(report["spans"])
        return head

    @staticmethod
    def _check_simulate(stdout, expect):
        rows = [line for line in stdout.splitlines() if line and not line.startswith("#")]
        last = [float(c) for c in rows[-1].split(",")]
        x_end = np.array([complex(last[i], last[i + 1]) for i in (1, 3, 5)])
        want = expect["x_end"]
        dev = float(np.max(np.abs(x_end - want)) / (1.0 + np.max(np.abs(want))))
        if last[0] != GRID_T_END or not dev <= ORACLE_RTOL:
            return f"final state at t={last[0]} off the closed form by {dev:.3e}"
        return None

    @staticmethod
    def _check_special(stdout, expect):
        report = json.loads(stdout)["report"]
        if not report.get("verify", {}).get("passed") or report["samples"] != 501:
            return f"report {report.get('verify')} with {report['samples']} samples"
        return None

    @staticmethod
    def _check_solve(stdout, expect):
        doc = json.loads(stdout)
        if doc["kind"] != "Unique":
            return f"outcome {doc['kind']}, expected Unique"
        got = [complex(*v) for v in doc["solutions"][0]["values"].values()]
        want = expect["solution"]
        dev = max(abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, want))
        if not dev <= SOLVE_RTOL:
            return f"solution off the drawn values by {dev:.3e}"
        return None

    @staticmethod
    def _check_verify(stdout, expect):
        doc = json.loads(stdout)
        return None if doc["passed"] else f"failed checks {doc['failed']}"


WORKLOADS = {"verify-batch": VerifyBatch, "closed-form-corpus": ClosedFormCorpus,
             "cli-cold": CliCold}


def consistency_problems(seed):
    """Cross-check the traced integration counts on one real verify instance.

    Traces `verify --batch 1 --seed <seed>`, then integrates the same
    instance again on the acceptance grid, through a field closure that
    counts its own calls.  Returns a list of mismatches (empty when the
    traced rhs count equals the closure's count and the derived step
    counts are whole and non-negative).  Call it with no tracer installed.
    """
    params, x0 = constraints.random_admissible_instance(seed, mode="real")
    grid = acceptance_grid(closed_form.make_special(params, x0), "real")
    if len(grid) < 2:
        return [f"seed {seed} has no window to integrate"]
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["verify", "--batch", "1", "--seed", str(seed)])
    finally:
        restore()
    if rc != 0:
        return [f"verify --batch 1 --seed {seed} exited {rc}"]
    metrics = tracer.layer_metrics(spans.spans, [], 0.0)
    count = 0

    def counting_field(x):
        nonlocal count
        count += 1
        return model.rhs(params, x)

    control = integrate.StepControl(rtol=1e-9, atol=1e-12)
    integrate.integrate_on_grid(counting_field, x0, grid, control)
    problems = []
    if metrics["integrate.rhs_per_instance"] != count:
        problems.append(f"traced rhs count {metrics['integrate.rhs_per_instance']} "
                        f"!= counting closure {count}")
    accepted = metrics["integrate.steps_accepted"]
    rejected = metrics["integrate.steps_rejected"]
    attempted = accepted + rejected
    if attempted != int(attempted) or rejected < 0 or accepted < 1:
        problems.append(f"step counts do not add up: accepted {accepted} + "
                        f"rejected {rejected} != attempted {attempted}")
    return problems
