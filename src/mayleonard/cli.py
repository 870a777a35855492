"""Command line front end: simulate, special, solve and verify.

Exit codes:
  0  success
  1  the initial state failed the admissibility check (special)
  2  integration ended in blow-up or step underflow
  3  file i/o failed
  4  the constraint solver raised a diagnostic
  5  a verification check failed
  64 usage or configuration errors

Run configurations are strict JSON: unknown keys are rejected by name, and
numbers must match the declared mode ("real" scalars are plain numbers,
"complex" scalars are plain numbers or [re, im] pairs).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .closed_form import (BLOW_UP_MARGIN, AdmissibilityReport, SpecialSolution,
                          blow_up_time, check_admissibility, eval_special,
                          linear_forms, make_special, period_of, verify_special)
from .constraints import (OutcomeKind, ProblemInstance, Slot,
                          assignment_to_system, random_admissible_instance,
                          solve_pair)
from .errors import (ConfigError, ExhaustedRetriesError, IllConditionedError,
                     MayLeonardError, OverflowSignal, PoleError)
from .integrate import (StepControl, Termination, Trajectory, adaptive_45,
                        integrate_on_grid, rk4_fixed)
from .model import ModelParams, SymmetricParams, reduce_symmetric, rhs

EXIT_OK = 0
EXIT_ADMISSIBILITY = 1
EXIT_BLOW_UP = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5
EXIT_USAGE = 64

_COUPLING_KEYS = ("a12", "a13", "a21", "a23", "a31", "a32")

# Caps on the work one config may request; a config past either exits 64.
MAX_RK4_STEPS = 10**7
MAX_GRID_POINTS = 10**6

# Thresholds for the verify sub-checks.
VERIFY_ODE_RTOL = 1e-10
VERIFY_ORACLE_RTOL = 1e-8
VERIFY_RAY_RTOL = 1e-12
VERIFY_PERIOD_RTOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration; round-trips through serialize_config."""

    mode: str
    eta: object
    couplings: tuple | None
    symmetric: tuple | None
    x0: tuple
    t_span: tuple
    method: str
    step: float | None
    rtol: float | None
    atol: float | None
    grid_points: int
    output_path: str | None
    output_format: str
    z_override: object
    seed: int | None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v, key: str) -> float:
    # JSON integers are unbounded; one past the float range counts as infinite.
    try:
        value = float(v)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be finite")
    return value


def _parse_scalar(v, key: str, mode: str):
    if _is_number(v):
        value = _finite(v, key)
        return complex(value) if mode == "complex" else value
    if isinstance(v, list) and len(v) == 2 and all(_is_number(c) for c in v):
        if mode == "real":
            raise ConfigError(
                f"mode mismatch: '{key}' is a [re, im] pair but mode is \"real\"")
        return complex(_finite(v[0], key), _finite(v[1], key))
    expected = "a number" if mode == "real" else "a number or a [re, im] pair"
    raise ConfigError(f"'{key}' must be {expected}")


def _parse_real(v, key: str) -> float:
    if not _is_number(v):
        raise ConfigError(f"'{key}' must be a real number")
    return _finite(v, key)


def _parse_int(v, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{key}' must be an integer")
    return v


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    return config_from_dict(obj)


def config_from_dict(obj) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"mode", "eta", "couplings", "symmetric", "x0", "t_span", "method",
               "step", "tolerances", "grid_points", "output", "z_override", "seed"}
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key!r}")
    for key in ("mode", "eta", "x0", "t_span", "method"):
        if key not in obj:
            raise ConfigError(f"missing config key: {key!r}")

    mode = obj["mode"]
    if mode not in ("real", "complex"):
        raise ConfigError("'mode' must be \"real\" or \"complex\"")
    eta = _parse_scalar(obj["eta"], "eta", mode)

    has_couplings = "couplings" in obj
    has_symmetric = "symmetric" in obj
    if has_couplings == has_symmetric:
        raise ConfigError("give exactly one of 'couplings' and 'symmetric'")
    couplings = symmetric = None
    if has_couplings:
        c = obj["couplings"]
        if not isinstance(c, dict) or set(c) != set(_COUPLING_KEYS):
            raise ConfigError(
                f"'couplings' must be an object with exactly the keys {list(_COUPLING_KEYS)}")
        couplings = tuple(_parse_scalar(c[k], f"couplings.{k}", mode) for k in _COUPLING_KEYS)
    else:
        s = obj["symmetric"]
        if not isinstance(s, dict) or set(s) != {"alpha", "beta"}:
            raise ConfigError("'symmetric' must be an object with exactly the keys "
                              "['alpha', 'beta']")
        symmetric = (_parse_scalar(s["alpha"], "symmetric.alpha", mode),
                     _parse_scalar(s["beta"], "symmetric.beta", mode))

    x0_raw = obj["x0"]
    if not isinstance(x0_raw, list) or len(x0_raw) != 3:
        raise ConfigError("'x0' must be a list of three scalars")
    x0 = tuple(_parse_scalar(v, f"x0[{i}]", mode) for i, v in enumerate(x0_raw))

    span_raw = obj["t_span"]
    if not isinstance(span_raw, list) or len(span_raw) != 2:
        raise ConfigError("'t_span' must be [t0, t1]")
    t_span = (_parse_real(span_raw[0], "t_span[0]"), _parse_real(span_raw[1], "t_span[1]"))
    if not t_span[1] >= t_span[0]:
        raise ConfigError("'t_span' must satisfy t1 >= t0")

    method = obj["method"]
    if method not in ("rk4", "adaptive", "closed-form"):
        raise ConfigError("'method' must be \"rk4\", \"adaptive\" or \"closed-form\"")

    step = None
    if method == "rk4":
        if "step" not in obj:
            raise ConfigError("method \"rk4\" requires 'step'")
        step = _parse_real(obj["step"], "step")
        if not step > 0:
            raise ConfigError("'step' must be positive")
        # The same step count rk4_fixed takes, compared without ceil so an
        # infinite quotient is rejected rather than raised.
        if (t_span[1] - t_span[0]) / step - 1e-12 > MAX_RK4_STEPS:
            raise ConfigError(f"'step' needs more than {MAX_RK4_STEPS} RK4 steps "
                              "over 't_span'")
    elif "step" in obj:
        raise ConfigError(f"'step' only applies to method \"rk4\", not \"{method}\"")

    rtol = atol = None
    if method == "adaptive":
        tols = obj.get("tolerances", {})
        if not isinstance(tols, dict) or not set(tols) <= {"rtol", "atol"}:
            raise ConfigError("'tolerances' must be an object with keys from ['rtol', 'atol']")
        rtol = _parse_real(tols.get("rtol", 1e-9), "tolerances.rtol")
        atol = _parse_real(tols.get("atol", 1e-12), "tolerances.atol")
        if not (rtol > 0 and atol > 0):
            raise ConfigError("'tolerances' must be positive")
    elif "tolerances" in obj:
        raise ConfigError(f"'tolerances' only applies to method \"adaptive\", not \"{method}\"")

    grid_points = _parse_int(obj.get("grid_points", 501), "grid_points")
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"'grid_points' must be at least 1 and at most {MAX_GRID_POINTS}")

    output_path = None
    output_format = "csv"
    if "output" in obj:
        out = obj["output"]
        if not isinstance(out, dict) or not set(out) <= {"path", "format"}:
            raise ConfigError("'output' must be an object with keys from ['path', 'format']")
        if "path" in out:
            if not isinstance(out["path"], str) or not out["path"]:
                raise ConfigError("'output.path' must be a non-empty string")
            output_path = out["path"]
        if "format" in out:
            if out["format"] not in ("csv", "json"):
                raise ConfigError("'output.format' must be \"csv\" or \"json\"")
            output_format = out["format"]

    z_override = None
    if "z_override" in obj:
        z_override = _parse_scalar(obj["z_override"], "z_override", mode)

    seed = None
    if "seed" in obj:
        seed = _parse_int(obj["seed"], "seed")

    return RunConfig(mode=mode, eta=eta, couplings=couplings, symmetric=symmetric,
                     x0=x0, t_span=t_span, method=method, step=step, rtol=rtol,
                     atol=atol, grid_points=grid_points, output_path=output_path,
                     output_format=output_format, z_override=z_override, seed=seed)


def _scalar_to_json(v, mode: str):
    if mode == "complex":
        v = complex(v)
        return [v.real, v.imag]
    return float(v)


def serialize_config(cfg: RunConfig) -> dict:
    """Inverse of parse_config: a dict whose JSON text parses back equal."""
    obj = {"mode": cfg.mode, "eta": _scalar_to_json(cfg.eta, cfg.mode)}
    if cfg.couplings is not None:
        obj["couplings"] = {k: _scalar_to_json(v, cfg.mode)
                            for k, v in zip(_COUPLING_KEYS, cfg.couplings)}
    else:
        obj["symmetric"] = {"alpha": _scalar_to_json(cfg.symmetric[0], cfg.mode),
                            "beta": _scalar_to_json(cfg.symmetric[1], cfg.mode)}
    obj["x0"] = [_scalar_to_json(v, cfg.mode) for v in cfg.x0]
    obj["t_span"] = [cfg.t_span[0], cfg.t_span[1]]
    obj["method"] = cfg.method
    if cfg.step is not None:
        obj["step"] = cfg.step
    if cfg.rtol is not None:
        obj["tolerances"] = {"rtol": cfg.rtol, "atol": cfg.atol}
    obj["grid_points"] = cfg.grid_points
    if cfg.output_path is not None or cfg.output_format != "csv":
        out = {}
        if cfg.output_path is not None:
            out["path"] = cfg.output_path
        if cfg.output_format != "csv":
            out["format"] = cfg.output_format
        obj["output"] = out
    if cfg.z_override is not None:
        obj["z_override"] = _scalar_to_json(cfg.z_override, cfg.mode)
    if cfg.seed is not None:
        obj["seed"] = cfg.seed
    return obj


def build_system(cfg: RunConfig):
    """ModelParams and the initial state array implied by a config."""
    if cfg.couplings is not None:
        params = ModelParams.from_couplings(cfg.eta, *cfg.couplings)
    else:
        pattern = reduce_symmetric(SymmetricParams(cfg.symmetric[0], cfg.symmetric[1]))
        params = ModelParams(cfg.eta, pattern.a)
    dtype = complex if cfg.mode == "complex" else float
    x0 = np.array(cfg.x0, dtype=dtype)
    return params, x0


def _diag(message: str) -> None:
    stream = sys.stderr
    color = stream.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if color else "error:"
    print(f"{prefix} {message}", file=stream)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _num17(v: float) -> str:
    return "%.17g" % float(v)


def _write_rows_csv(fh, times, states, mode: str, comments=()) -> None:
    if mode == "complex":
        fh.write("t,re_x1,im_x1,re_x2,im_x2,re_x3,im_x3\n")
        for t, row in zip(times, states):
            cells = [_num17(t)]
            for c in row:
                c = complex(c)
                cells.append(_num17(c.real))
                cells.append(_num17(c.imag))
            fh.write(",".join(cells) + "\n")
    else:
        fh.write("t,x1,x2,x3\n")
        for t, row in zip(times, states):
            cells = [_num17(t)] + [_num17(c) for c in row]
            fh.write(",".join(cells) + "\n")
    for line in comments:
        fh.write(line + "\n")


def _state_to_json(row, mode: str):
    return [_scalar_to_json(c, mode) for c in row]


def _trajectory_json(times, states, mode: str, termination=None, termination_time=None):
    doc = {"times": [float(t) for t in times],
           "states": [_state_to_json(row, mode) for row in states]}
    if termination is not None:
        doc["terminated"] = {"kind": termination.value,
                             "t": None if termination_time is None else float(termination_time)}
    return doc


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path is not None:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _trajectory_text(cfg: RunConfig, traj: Trajectory, comments=()) -> str:
    if cfg.output_format == "json":
        doc = _trajectory_json(traj.times, traj.states, cfg.mode,
                               traj.termination, traj.termination_time)
        if comments:
            doc["notes"] = list(comments)
        return json.dumps(doc, indent=2) + "\n"
    trailer = list(comments)
    if traj.termination != Termination.COMPLETED:
        trailer.append(f"# terminated={traj.termination.value} t={_num17(traj.termination_time)}")
    buf = io.StringIO()
    _write_rows_csv(buf, traj.times, traj.states, cfg.mode, trailer)
    return buf.getvalue()


def cmd_simulate(args) -> int:
    """Integrate the configured system and write the trajectory."""
    cfg = _load_config(args)
    if cfg.method not in ("rk4", "adaptive"):
        raise ConfigError("simulate needs method \"rk4\" or \"adaptive\"")
    params, x0 = build_system(cfg)
    t0, t1 = cfg.t_span

    def field(x):
        return rhs(params, x)

    if t1 == t0:
        traj = Trajectory(np.array([t0]), np.array([x0]), Termination.COMPLETED)
    elif cfg.method == "rk4":
        traj = rk4_fixed(field, x0, t0, t1, cfg.step)
    else:
        ctrl = StepControl(rtol=cfg.rtol, atol=cfg.atol)
        traj = adaptive_45(field, x0, t0, t1, ctrl)
    _emit(cfg, _trajectory_text(cfg, traj))
    if traj.termination != Termination.COMPLETED:
        _diag(f"integration ended early: {traj.termination.value} "
              f"at t = {traj.termination_time}")
        return EXIT_BLOW_UP
    return EXIT_OK


def _admissibility_json(report: AdmissibilityReport, mode: str) -> dict:
    return {"passed": report.passed,
            "e_values": [_scalar_to_json(e, mode) for e in report.e_values],
            "residuals": [_scalar_to_json(r, mode) for r in report.residuals],
            "z": None if report.z is None else _scalar_to_json(report.z, mode),
            "tol": report.tol}


def cmd_special(args) -> int:
    """Sample the closed-form ray solution and append its residual report."""
    cfg = _load_config(args)
    if cfg.method != "closed-form":
        raise ConfigError("special needs method \"closed-form\"")
    params, x0 = build_system(cfg)
    result = make_special(params, x0)
    if isinstance(result, AdmissibilityReport):
        print(json.dumps({"admissible": False,
                          "report": _admissibility_json(result, cfg.mode)}, indent=2))
        _diag("initial state failed admissibility; no ray solution through it")
        return EXIT_ADMISSIBILITY
    sol = result
    if cfg.z_override is not None:
        sol = SpecialSolution(x0=sol.x0, z=cfg.z_override, eta=sol.eta)

    t0, t1 = cfg.t_span
    grid = [t0] if t1 == t0 else [float(t) for t in np.linspace(t0, t1, cfg.grid_points)]
    t_star = blow_up_time(sol) if cfg.mode == "real" else None

    kept_t, kept_x, skipped = [], [], []
    for t in grid:
        if t_star is not None and abs(t - t_star) < BLOW_UP_MARGIN:
            skipped.append(t)
            continue
        try:
            kept_x.append(eval_special(sol, t))
            kept_t.append(t)
        except (PoleError, OverflowSignal):
            skipped.append(t)

    verify = verify_special(params, sol, kept_t, tol=VERIFY_ODE_RTOL) if kept_t else None

    period = period_of(sol.eta) if cfg.mode == "complex" else None
    period_dev = None
    if period is not None:
        period_dev = _period_deviation(sol, t0, period)

    report = {"admissible": True,
              "z": _scalar_to_json(sol.z, cfg.mode),
              "blow_up_time": t_star,
              "samples": len(kept_t),
              "skipped": skipped}
    if verify is not None:
        report["verify"] = {"max_residual": verify.max_residual,
                            "max_relative": verify.max_relative,
                            "worst_time": verify.worst_time,
                            "passed": verify.passed,
                            "tol": verify.tol}
    if period is not None:
        report["periodicity"] = {"period": period, "deviation": period_dev}

    comments = [f"# skipped t={_num17(t)} (within {BLOW_UP_MARGIN:g} of a pole)"
                for t in skipped]
    if verify is not None:
        comments.append(
            f"# verify max_residual={verify.max_residual:.17g} "
            f"max_relative={verify.max_relative:.17g} passed={str(verify.passed).lower()}")
    if period is not None:
        dev_text = "n/a" if period_dev is None else f"{period_dev:.17g}"
        comments.append(f"# periodicity period={period:.17g} deviation={dev_text}")

    if cfg.output_format == "json":
        doc = _trajectory_json(kept_t, kept_x, cfg.mode)
        doc["report"] = report
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        _write_rows_csv(buf, kept_t, kept_x, cfg.mode, comments)
        text = buf.getvalue()
    _emit(cfg, text)
    if cfg.output_path is not None:
        print(json.dumps(report, indent=2))
    return EXIT_OK


def _period_deviation(sol: SpecialSolution, t0: float, period: float):
    """Max closed-form deviation over one period at ten sample phases."""
    worst = 0.0
    for j in range(10):
        t = t0 + j * period / 10.0
        try:
            dev = float(np.max(np.abs(eval_special(sol, t + period) - eval_special(sol, t))))
        except (PoleError, OverflowSignal):
            return None
        worst = max(worst, dev)
    return worst


def cmd_solve(args) -> int:
    """Solve the admissibility constraints for a requested unknown pair."""
    text = _read_text(args.request)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("solve request root must be a JSON object")
    allowed = {"mode", "known", "unknowns"}
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown solve request key: {key!r}")
    mode = args.mode or obj.get("mode", "real")
    if mode not in ("real", "complex"):
        raise ConfigError("'mode' must be \"real\" or \"complex\"")
    by_name = {s.value: s for s in Slot}

    unknowns_raw = obj.get("unknowns")
    if not isinstance(unknowns_raw, list) or len(unknowns_raw) != 2:
        raise ConfigError("'unknowns' must be a list of two slot names")
    unknowns = []
    for name in unknowns_raw:
        if name not in by_name:
            raise ConfigError(f"unknown slot name {name!r}; "
                              f"valid slots: {sorted(by_name)}")
        unknowns.append(by_name[name])

    known_raw = obj.get("known")
    if not isinstance(known_raw, dict):
        raise ConfigError("'known' must be an object of slot values")
    known = {}
    for name, value in known_raw.items():
        if name not in by_name:
            raise ConfigError(f"unknown slot name {name!r} in 'known'")
        known[by_name[name]] = _parse_scalar(value, f"known.{name}", mode)
    try:
        instance = ProblemInstance(known=known, unknowns=tuple(unknowns))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    outcome = solve_pair(instance, mode=mode)

    solutions = []
    for u, v in outcome.solutions:
        full = dict(instance.known)
        full[instance.unknowns[0]] = u
        full[instance.unknowns[1]] = v
        sys_params, sys_x0 = assignment_to_system(full)
        e = linear_forms(sys_params, sys_x0)
        r1, r2 = e[0] - e[1], e[1] - e[2]
        z = e[0] + ((e[1] - e[0]) + (e[2] - e[0])) / 3
        solutions.append({
            "values": {instance.unknowns[0].value: _scalar_to_json(u, mode),
                       instance.unknowns[1].value: _scalar_to_json(v, mode)},
            "residuals": [_scalar_to_json(r1, mode), _scalar_to_json(r2, mode)],
            "z": _scalar_to_json(z, mode)})

    doc = {"kind": outcome.kind.value,
           "description": outcome.description,
           "solutions": solutions}
    text_out = json.dumps(doc, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text_out)
    else:
        sys.stdout.write(text_out)
    return EXIT_OK


def _run_checks(params: ModelParams, x0: np.ndarray, mode: str, t_span,
                rtol: float, atol: float, z_override=None) -> dict:
    """The verify sub-checks; returns {name: {passed, measured, threshold}}."""
    checks = {}
    report = check_admissibility(params, x0)
    spread = max(abs(report.residuals[0]), abs(report.residuals[1]),
                 abs(report.e_values[0] - report.e_values[2]))
    scale = 1.0 + max(abs(e) for e in report.e_values)
    checks["admissibility"] = {"passed": report.passed,
                               "measured": float(spread),
                               "threshold": report.tol * scale}
    if not report.passed:
        return checks
    sol = make_special(params, x0)
    if z_override is not None:
        sol = SpecialSolution(x0=sol.x0, z=z_override, eta=sol.eta)

    t0, t1 = t_span
    t_star = blow_up_time(sol) if mode == "real" else None
    t_hi = t1
    if t_star is not None:
        t_hi = min(t1, t_star - 0.1)
    if t_hi <= t0:
        grid = [t0]
    else:
        grid = [float(t) for t in np.linspace(t0, t_hi, 101)]

    try:
        vr = verify_special(params, sol, grid, tol=VERIFY_ODE_RTOL)
        checks["ode_residual"] = {"passed": vr.passed,
                                  "measured": vr.max_relative,
                                  "threshold": vr.tol}
    except (PoleError, OverflowSignal) as exc:
        checks["ode_residual"] = {"passed": False, "measured": math.inf,
                                  "threshold": VERIFY_ODE_RTOL, "note": str(exc)}
        return checks

    closed = np.array([eval_special(sol, t) for t in grid])

    def field(x):
        return rhs(params, x)

    if len(grid) >= 2:
        ctrl = StepControl(rtol=rtol, atol=atol)
        traj = integrate_on_grid(field, x0, grid, ctrl)
        if traj.termination != Termination.COMPLETED:
            checks["oracle_agreement"] = {
                "passed": False, "measured": math.inf, "threshold": VERIFY_ORACLE_RTOL,
                "note": f"integration ended early: {traj.termination.value}"}
        else:
            dev = 0.0
            for row_num, row_cf in zip(traj.states, closed):
                d = float(np.max(np.abs(row_num - row_cf)))
                d /= 1.0 + float(np.max(np.abs(row_cf)))
                dev = max(dev, d)
            checks["oracle_agreement"] = {"passed": dev <= VERIFY_ORACLE_RTOL,
                                          "measured": dev,
                                          "threshold": VERIFY_ORACLE_RTOL}
    else:
        checks["oracle_agreement"] = {"passed": True, "measured": 0.0,
                                      "threshold": VERIFY_ORACLE_RTOL,
                                      "note": "window too short to integrate"}

    # ray constancy: x_n(t)/x_n(0) must agree across components
    live = [n for n in range(3) if abs(complex(x0[n])) > 0]
    dev = 0.0
    if live:
        for row in closed:
            ratios = [complex(row[n]) / complex(x0[n]) for n in live]
            ref = ratios[0]
            for r in ratios[1:]:
                dev = max(dev, abs(r - ref) / (1.0 + abs(ref)))
    checks["ray_constancy"] = {"passed": dev <= VERIFY_RAY_RTOL,
                               "measured": dev,
                               "threshold": VERIFY_RAY_RTOL}

    period = period_of(params.eta) if mode == "complex" else None
    if period is not None:
        dev = _period_deviation(sol, t0, period)
        if dev is None:
            checks["periodicity"] = {"passed": False, "measured": math.inf,
                                     "threshold": VERIFY_PERIOD_RTOL,
                                     "note": "a sample phase fell on a pole"}
        else:
            scale = 1.0 + float(np.max(np.abs(closed))) if len(closed) else 1.0
            checks["periodicity"] = {"passed": dev <= VERIFY_PERIOD_RTOL * scale,
                                     "measured": dev,
                                     "threshold": VERIFY_PERIOD_RTOL * scale}
    return checks


def cmd_verify(args) -> int:
    """Re-derive every closed-form claim for one config or a random batch."""
    if args.batch is not None:
        return _verify_batch(args)
    if not args.config:
        raise ConfigError("verify needs a config file unless --batch is given")
    cfg = _load_config(args)
    params, x0 = build_system(cfg)
    rtol = cfg.rtol if cfg.rtol is not None else 1e-9
    atol = cfg.atol if cfg.atol is not None else 1e-12
    checks = _run_checks(params, x0, cfg.mode, cfg.t_span, rtol, atol,
                         z_override=cfg.z_override)
    failed = sorted(name for name, c in checks.items() if not c["passed"])
    doc = {"passed": not failed, "failed": failed, "checks": checks}
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if failed:
        _diag("verification failed: " + ", ".join(failed))
        return EXIT_VERIFY
    return EXIT_OK


def _verify_batch(args) -> int:
    mode = args.mode or "real"
    if mode not in ("real", "complex"):
        raise ConfigError("'--mode' must be \"real\" or \"complex\"")
    if args.batch < 1:
        raise ConfigError("'--batch' must be at least 1")
    base = args.seed if args.seed is not None else 0
    span = (0.0, 5.0)
    all_ok = True
    for k in range(args.batch):
        seed = base + k
        try:
            params, x0 = random_admissible_instance(seed, mode=mode)
        except ExhaustedRetriesError as exc:
            print(f"seed {seed}: FAIL generation ({exc})")
            all_ok = False
            continue
        checks = _run_checks(params, x0, mode, span, rtol=1e-9, atol=1e-12)
        failed = sorted(name for name, c in checks.items() if not c["passed"])
        summary = " ".join(f"{name}={c['measured']:.3e}" for name, c in checks.items()
                           if name != "admissibility")
        if failed:
            print(f"seed {seed}: FAIL {', '.join(failed)} {summary}")
            all_ok = False
        else:
            print(f"seed {seed}: ok {summary}")
    if not all_ok:
        _diag("batch verification failed")
        return EXIT_VERIFY
    return EXIT_OK


def _load_config(args) -> RunConfig:
    text = _read_text(args.config)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {args.config}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    if getattr(args, "mode", None):
        obj["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        obj["seed"] = args.seed
    out_path = getattr(args, "output", None)
    out_format = getattr(args, "format", None)
    if out_path or out_format:
        out = obj.get("output")
        if out is None:
            out = {}
            obj["output"] = out
        if isinstance(out, dict):
            if out_path:
                out["path"] = out_path
            if out_format:
                out["format"] = out_format
    return config_from_dict(obj)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mayleonard",
                     description="Asymmetric May-Leonard dynamics: closed-form ray "
                                 "solutions, constraint solving and certified integration.")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_format=True):
        p.add_argument("--mode", choices=["real", "complex"],
                       help="override the config mode")
        p.add_argument("--output", help="override the output path")
        if with_format:
            p.add_argument("--format", choices=["csv", "json"],
                           help="override the output format")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_sim = sub.add_parser("simulate", help="integrate the system numerically")
    p_sim.add_argument("config", help="JSON run configuration")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_special = sub.add_parser("special", help="sample the closed-form ray solution")
    p_special.add_argument("config", help="JSON run configuration")
    common(p_special)
    p_special.set_defaults(func=cmd_special)

    p_solve = sub.add_parser("solve", help="solve the admissibility constraints "
                                           "for two unknown slots")
    p_solve.add_argument("request", help="JSON solve request")
    p_solve.add_argument("--mode", choices=["real", "complex"],
                         help="override the request mode")
    p_solve.add_argument("--output", help="write the JSON report here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-derive every closed-form claim")
    p_verify.add_argument("config", nargs="?", help="JSON run configuration")
    p_verify.add_argument("--batch", type=int,
                          help="verify this many random admissible instances instead")
    common(p_verify, with_format=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        _diag(str(exc))
        return EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        _diag(str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _diag(f"i/o failure: {exc}")
        return EXIT_IO
    except (IllConditionedError, ExhaustedRetriesError) as exc:
        _diag(f"solver diagnostic: {exc}")
        return EXIT_SOLVER
    except (PoleError, OverflowSignal) as exc:
        _diag(f"numeric failure: {exc}")
        return EXIT_BLOW_UP
    except MayLeonardError as exc:
        _diag(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
