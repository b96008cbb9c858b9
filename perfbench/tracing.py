"""In-memory tracing of wavedecay's layers, installed from outside the package.

The tracer replaces module attributes (the binding sites) with timing
wrappers and restores them on uninstall.  The wrappers keep a stack of open
calls, so each layer's self time is its calls' durations minus the part
covered by calls into other layers.  Coarse entry points (experiment,
simulation, harness stages, kernel calls, writes) are also recorded as
spans (id, parent id, name, start, end); the hot scalar calls (feedback
evaluations, root solves, quadratures) are only aggregated, since there are
millions of them per round.

Binding sites matter because several modules import names directly:
``sim`` binds ``ghat_np``, ``odecmp`` binds ``hprime_inv`` and ``harness``
binds ``run`` and the ``transforms`` helpers.  Each such name is wrapped
where it is looked up.  Stat keys are ``<callee layer>.<function>@<site>``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time

LAYERS = ("kernels", "sim", "config", "harness", "transforms", "odecmp", "feedback", "numutil")


SPAN, TIMED, LEAF = "span", "timed", "leaf"


def _bindings(wd):
    """(owner, attribute, callee layer, site, kind) for every wrapped name.

    kind SPAN records each call as a span; TIMED and LEAF only aggregate.
    LEAF is for functions that call nothing wrapped, so the wrapper needs no
    frame of its own, which halves its cost on the hottest calls.
    """
    k, sim, cfg, h, tr, od, nu = (
        wd._kernels, wd.sim, wd.config, wd.harness, wd.transforms, wd.odecmp, wd.numutil,
    )
    out = [
        (k, "advance", "kernels", "sim", SPAN),
        (sim, "ghat_np", "kernels", "sim", LEAF),
        (sim, "init_state", "sim", "sim", SPAN),
        (sim, "energy", "sim", "sim", TIMED),
        (sim, "dissipation_rate", "sim", "sim", TIMED),
        (h, "run", "sim", "harness", SPAN),
        (sim.EnergyTrace, "to_csv", "sim", "harness", SPAN),
        (cfg, "parse_config_text", "config", "bench", SPAN),
        (cfg, "make_feedback", "feedback", "config", LEAF),
        (h, "_atomic_write", "harness", "harness", SPAN),
        (tr, "optimal_weight", "transforms", "bench", TIMED),
        (tr, "beta_floor", "transforms", "bench", TIMED),
    ]
    out += [(h, name, "harness", "bench", SPAN) for name in (
        "run_experiment", "check_integral_inequality", "fit_tail_exponent",
        "calibrate_upper", "calibrate_lower", "compare_to_envelope",
    )]
    out += [(h, name, "transforms", "harness", TIMED) for name in (
        "beta_floor", "envelope_value", "hprime_inv", "optimal_weight", "_away_from_linear", "_c0",
    )]
    out += [(h, "hfl_screen", "odecmp", "harness", TIMED)]
    # transforms functions that numutil calls back through lambdas and closures
    out += [(tr, name, "transforms", "transforms", TIMED) for name in (
        "hprime_inv", "eval_L", "inverse_L", "psi0_eval", "psi0_inverse",
    )]
    out += [(tr, name, "feedback", "transforms", LEAF) for name in (
        "eval_H", "eval_H_prime", "lambda_H", "lambda_limit",
    )]
    out += [(tr, name, "numutil", "transforms", TIMED) for name in (
        "adaptive_simpson", "bisect_root", "invert_increasing",
    )]
    # transforms.envelope_value imports lower_envelope from odecmp at call time
    out += [(od, "lower_envelope", "odecmp", "transforms", TIMED)]
    out += [(od, name, "transforms", "odecmp", TIMED) for name in ("hprime_inv", "_c0")]
    out += [(od, name, "feedback", "odecmp", LEAF) for name in ("eval_H", "eval_H_prime", "lambda_H")]
    out += [(od, name, "numutil", "odecmp", TIMED) for name in ("adaptive_simpson", "bisect_root")]
    out += [(nu, "bisect_root", "numutil", "numutil", TIMED)]
    return out


class Tracer:
    """Wraps wavedecay's binding sites; holds spans, per-call stats and layer self times."""

    def __init__(self, wd):
        self.wd = wd
        self.spans: list[tuple] = []  # (id, parent id, key, start, end); 0 is the root
        self.stats: dict[str, list] = {}  # key -> [calls, seconds]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = {"kernels.steps": 0, "kernels.ghat_calls": 0, "harness.write_bytes": 0}
        self._stack = [[0.0, 0]]  # open calls: [seconds covered by children, span id]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, key, layer, kind):
        stack, self_s, spans, ids = self._stack, self.self_s, self.spans, self._ids
        stat = self.stats.setdefault(key, [0, 0.0])
        perf = time.perf_counter

        if kind == LEAF:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack[-1][0] += dt
                    self_s[layer] += dt
                    stat[0] += 1
                    stat[1] += dt
        elif kind == TIMED:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    self_s[layer] += dt - frame[0]
                    stat[0] += 1
                    stat[1] += dt
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1][1]
                frame = [0.0, sid]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    dt = t1 - t0
                    stack[-1][0] += dt
                    self_s[layer] += dt - frame[0]
                    stat[0] += 1
                    stat[1] += dt
                    spans.append((sid, parent, key, t0, t1))
        return wrapper

    def _counting_shims(self):
        """Count kernel steps, Newton iterations and written bytes inside the timed calls."""
        counters = self.counters
        k, h = self.wd._kernels, self.wd.harness

        def advance(fn):
            def shim(*args):
                counters["kernels.steps"] += args[8]  # nsteps
                return fn(*args)
            return shim

        def to_csv(fn):
            def shim(trace, path):
                fn(trace, path)
                counters["harness.write_bytes"] += os.path.getsize(path)
            return shim

        def atomic_write(fn):
            def shim(path, content):
                fn(path, content)
                counters["harness.write_bytes"] += len(content.encode())
            return shim

        return {(k, "advance"): advance, (self.wd.sim.EnergyTrace, "to_csv"): to_csv,
                (h, "_atomic_write"): atomic_write}

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        shims = self._counting_shims()
        for owner, attr, layer, site, kind in _bindings(self.wd):
            fn = vars(owner)[attr]
            shim = shims.get((owner, attr))
            if shim is not None:
                fn = functools.wraps(fn)(shim(fn))
            self._patch(owner, attr, self._wrap(fn, f"{layer}.{attr}@{site}", layer, kind))

        # Newton iterations: ghat_np calls made by the numpy kernel itself
        counters = self.counters
        ghat = vars(self.wd._kernels)["ghat_np"]

        def ghat_np(*args):
            counters["kernels.ghat_calls"] += 1
            return ghat(*args)

        self._patch(self.wd._kernels, "ghat_np", ghat_np)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def calls(self, prefix: str) -> int:
        """Calls summed over every binding site of a callee (key up to '@')."""
        return sum(v[0] for k, v in self.stats.items() if k.split("@")[0] == prefix)

    def seconds(self, prefix: str) -> float:
        return sum(v[1] for k, v in self.stats.items() if k.split("@")[0] == prefix)

    def covered_s(self) -> float:
        return self._stack[0][0]

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        doc["stats"] = {k: {"calls": v[0], "seconds": v[1]} for k, v in sorted(self.stats.items())}
        doc["self_s"] = self.self_s
        doc["counters"] = self.counters
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
