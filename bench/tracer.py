"""Span tracing of the mayleonard layers from outside the package.

install() replaces every public layer function (the functions exported in
mayleonard.__all__, plus the console entry point mayleonard.cli.main) with
a wrapper that records one span per call.  The wrapper is put into every
loaded mayleonard.* module that holds a reference to the function, so a
call reaches it whichever module it goes through, including calls made
inside the package.  Spans stay in memory as tuples

    (name, start, end, parent index, instance id, note)

and are written out once the run ends.  note carries what the span's
caller cannot see afterwards: the accepted-step count and early-stop flag
of an adaptive_45 trajectory, or the exception class a call raised.
"""

from __future__ import annotations

import csv
import inspect
import statistics
import sys
import time

import mayleonard
import mayleonard.cli

RHS = "model.rhs"
A45 = "integrate.adaptive_45"
GRID = "integrate.integrate_on_grid"
RAI = "constraints.random_admissible_instance"
SOLVE = "constraints.solve_pair"
MAIN = "cli.main"

# Evaluations per attempted Dormand-Prince step: stages 2 to 7 (stage 1
# is carried over from the previous step, or is the one initial call).
STAGES_PER_STEP = 6


def _a45_note(traj):
    return (int(traj.times.size) - 1, traj.termination.value != "Completed")


_NOTES = {A45: _a45_note}


class Tracer:
    """In-memory span store; one per run, single-threaded callers only."""

    def __init__(self):
        self.spans = []
        self.instance = 0
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        note_of = _NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            note = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                note = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance, note)
            if note_of is not None:
                spans[idx] = spans[idx][:5] + (note_of(out),)
            return out

        return traced

    def extend(self, spans):
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, inst, note in spans:
            note = tuple(note) if isinstance(note, list) else note
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1,
                               inst, note))

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "instance", "note"])
            for i, (name, start, end, parent, inst, note) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, inst,
                              "" if note is None else note])


def _layer_functions():
    """{qualified name: function} for every public layer function."""
    found = {}
    for name in mayleonard.__all__:
        fn = getattr(mayleonard, name)
        if inspect.isfunction(fn):
            found[f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"] = fn
    found[MAIN] = mayleonard.cli.main
    return found


def install(tracer):
    """Wrap the layer functions everywhere they are bound; returns an undo callable."""
    by_id = {}
    for name, fn in _layer_functions().items():
        by_id[id(fn)] = (fn, tracer.wrap(name, fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "mayleonard" and not modname.startswith("mayleonard."):
            continue
        for attr, value in list(vars(module).items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, child_stamps, overhead):
    """Per-layer metric values from a span list.

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly on one thread, so the children cover
    disjoint parts of the parent's interval.  Step counts come from
    outside the integrator: attempted = (rhs calls inside adaptive_45 -
    adaptive_45 calls) / 6, accepted = recorded trajectory rows - 1.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_s = {}, {}, {}
    rhs_in_steps = solves_in_draws = accepted = early = ill = 0
    integrated = set()
    for i, (name, start, end, parent, inst, note) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == RHS and parent_name == A45:
            rhs_in_steps += 1
        elif name == A45:
            integrated.add(inst)
            if isinstance(note, tuple):
                accepted += note[0]
                early += int(note[1])
        elif name == SOLVE:
            solves_in_draws += parent_name == RAI
            ill += note == "IllConditionedError"
    attempted = (rhs_in_steps - calls.get(A45, 0)) / STAGES_PER_STEP

    cli_ms = [statistics.median(column) for column in zip(*child_stamps)] or [0.0] * 3

    def us_per_call(name):
        return _ratio(total.get(name, 0.0), calls.get(name, 0)) * 1e6

    return {
        "model.rhs.calls": calls.get(RHS, 0),
        "model.rhs.us_per_call": us_per_call(RHS),
        "model.rhs.self_s": self_s.get(RHS, 0.0),
        "integrate.integrate_on_grid.calls": calls.get(GRID, 0),
        "integrate.integrate_on_grid.self_s": self_s.get(GRID, 0.0),
        "integrate.adaptive_45.calls": calls.get(A45, 0),
        "integrate.adaptive_45.self_s": self_s.get(A45, 0.0),
        "integrate.rhs_per_instance": _ratio(rhs_in_steps, len(integrated)),
        "integrate.steps_accepted": accepted,
        "integrate.steps_rejected": attempted - accepted,
        "integrate.rhs_per_accepted_step": _ratio(rhs_in_steps, accepted),
        "integrate.early_terminations": early,
        "closed_form.verify_special.calls": calls.get("closed_form.verify_special", 0),
        "closed_form.verify_special.self_s": self_s.get("closed_form.verify_special", 0.0),
        "closed_form.eval_special.calls": calls.get("closed_form.eval_special", 0),
        "closed_form.eval_special.us_per_call": us_per_call("closed_form.eval_special"),
        "closed_form.make_special.self_s": self_s.get("closed_form.make_special", 0.0),
        "constraints.random_admissible_instance.calls": calls.get(RAI, 0),
        "constraints.random_admissible_instance.self_s": self_s.get(RAI, 0.0),
        "constraints.solve_pair.calls": calls.get(SOLVE, 0),
        "constraints.solve_pair.us_per_call": us_per_call(SOLVE),
        "constraints.solves_per_instance": _ratio(solves_in_draws, calls.get(RAI, 0)),
        "constraints.ill_conditioned": ill,
        "cli.main.self_s": self_s.get(MAIN, 0.0),
        "cli.interp_ms": cli_ms[0],
        "cli.import_ms": cli_ms[1],
        "cli.command_ms": cli_ms[2],
        "trace.overhead": overhead,
    }
