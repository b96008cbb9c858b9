"""The benchmark's workloads: seeded inputs, one round of operations, output checks.

Each workload turns the seed into INI text (and, for general_envelope, into
traces simulated during set-up) and then runs the same list of operations in
every round.  The package is driven through its public functions, looked up
on their modules at call time so that a tracer can wrap them.  NOTES.md says
why each workload was chosen.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import os
import random
import time

import numpy as np

DEFAULT_SEED = 0
AMPLITUDE_JITTER = 0.02  # seeded relative change of each initial amplitude
UPPER_SLACK = 1.0 + 1e-9
LOWER_SLACK = 1.0 - 1e-9
MONOTONE_TOL = 1e-11  # allowed rise between samples, relative to E(0)
# tolerances against reference.json (default seed, full size only)
E_RATIO_RTOL = 1e-8
SLOPE_ATOL = 1e-6
CONSTANT_RTOL = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

COEFFICIENTS = {
    "alpha_profile": "indicator",
    "alpha_support": "0.4, 0.9",
    "alpha_floor": "0.2",
    "a_profile": "indicator",
    "a_support": "0.2, 0.6",
    "a_floor": "1.0",
}
INITIAL = {"u0": "sine:1:1.0", "u1": "zero", "v0": "sine:2:0.5", "v1": "zero"}


class Ops:
    """Attempted and failed operations, with the time each attempt took.

    An operation fails when it raises or when its output fails a check; the
    run carries on either way.  `wrong` counts only the failed checks.
    `seconds` holds, per operation name, the duration of every call of the
    package (checks excluded), raising calls included.  `steps` holds, per
    operation name, the time steps its last returned output shows it
    simulated; an operation that raised is credited with none.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}
        self.seconds: dict[str, list[float]] = {}
        self.steps: dict[str, int] = {}

    def _record(self, key: str) -> None:
        self.failed += 1
        self.failures[key] = self.failures.get(key, 0) + 1

    def attempt(self, name, fn, check, steps=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is counted, not fatal
            self.seconds.setdefault(name, []).append(time.perf_counter() - t0)
            self._record(f"{name}: {type(exc).__name__}")
            return None
        self.seconds.setdefault(name, []).append(time.perf_counter() - t0)
        try:
            problems = check(result)
            if steps is not None:
                self.steps[name] = steps(result)
        except Exception as exc:  # malformed output
            problems = [f"unreadable output ({type(exc).__name__})"]
        if problems:
            self.wrong += 1
            self._record(f"{name}: failed check {', '.join(problems)}")
        return result


def ini_text(sections: dict) -> str:
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def scale_profile(text: str, scale: float) -> str:
    """Multiply the amplitude (last field) of every sine/bump atom by scale."""
    atoms = []
    for atom in text.split("+"):
        fields = atom.strip().split(":")
        if fields[0] in ("sine", "bump"):
            fields[-1] = repr(float(fields[-1]) * scale)
        atoms.append(":".join(fields))
    return " + ".join(atoms)


def trace_steps(trace) -> int:
    """Time steps a simulation advanced, read from its trace.

    sim.run labels the sample taken after step k with k*dt - dt/2 (the first
    sample, before any step, with 0).
    """
    if len(trace.t) < 2:
        return 0
    return round(float(trace.t[-1]) / float(trace.meta["dt"]) + 0.5)


def _rel_close(value, ref, rtol) -> bool:
    return value is not None and abs(value - ref) <= rtol * abs(ref)


def check_trace(trace) -> list[str]:
    """A simulation's energy never rises and the run reached t_final."""
    E, bad = trace.E, []
    if len(E) > 1 and float(np.max(np.diff(E))) > MONOTONE_TOL * E[0]:
        bad.append("non-increasing trace")
    if trace.meta.get("early_stop") != "false":
        bad.append("reached t_final")
    return bad


def check_experiment(res, ref) -> list[str]:
    """Invariants of one run_experiment result, plus reference values when given."""
    s, E = res.summary, res.trace.E
    bad = check_trace(res.trace)
    if not res.passed:
        bad.append("passed")
    if "upper_margin_max" in s and not s["upper_margin_max"] <= UPPER_SLACK:
        bad.append("upper margin")
    if "lower_margin_min" in s and not s["lower_margin_min"] >= LOWER_SLACK:
        bad.append("lower margin")
    if ref:
        if not _rel_close(float(E[-1] / E[0]), ref["E_ratio"], E_RATIO_RTOL):
            bad.append("E(T)/E(0) vs reference")
        if "fit_slope" in ref and not abs(s.get("fit_slope", math.nan) - ref["fit_slope"]) <= SLOPE_ATOL:
            bad.append("tail slope vs reference")
    return bad


class Workload:
    """Base: inputs from the seed, set-up, and one round of operations."""

    name = ""

    def __init__(self, wd, seed: int, root: str, work_dir: str, tiny: bool = False):
        self.wd = wd
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.tiny = tiny
        self.rng = random.Random(seed)
        self.reference = None
        if seed == DEFAULT_SEED and not tiny:
            with open(REFERENCE_PATH) as fh:
                self.reference = json.load(fh)[self.name]
        # simulations run during set-up, for workloads that simulate there
        self.setup_ops = Ops()

    def amplitude_scale(self) -> float:
        if self.seed == DEFAULT_SEED:
            return 1.0
        return 1.0 + self.rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER)

    def ref(self, key):
        return self.reference.get(key) if self.reference else None

    def experiment_op(self, ops, name, text, write_files):
        """Parse INI text and run one experiment as a single operation."""
        wd = self.wd
        return ops.attempt(
            name,
            lambda: wd.harness.run_experiment(wd.config.parse_config_text(text), write_files=write_files),
            lambda res: check_experiment(res, self.ref(name)),
            steps=lambda res: trace_steps(res.trace),
        )

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, ops: Ops) -> None:
        """Run the operations once."""
        raise NotImplementedError


class ReferenceCubic(Workload):
    """configs/cubic_damping.ini at its shipped n = 399, t_final shortened.

    The stride is cut with t_final, so the harness still fits and calibrates
    on the same number of samples (46) as at t_final = 20 with stride 200.
    """

    name = "reference_cubic"
    T_FINAL, STRIDE = 10.0, 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scale = self.amplitude_scale()

    def setup(self) -> None:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        with open(os.path.join(self.root, "configs", "cubic_damping.ini")) as fh:
            cp.read_file(fh)
        cp["time"]["t_final"] = repr(2.0 if self.tiny else self.T_FINAL)
        cp["time"]["stride"] = str(20 if self.tiny else self.STRIDE)
        for key in ("u0", "v0"):
            cp["initial"][key] = scale_profile(cp["initial"][key], self.scale)
        buf = io.StringIO()
        cp.write(buf)
        self.text = buf.getvalue()
        self.wd.config.parse_config_text(self.text)

    def run_round(self, ops: Ops) -> None:
        self.experiment_op(ops, "cubic", self.text, write_files=False)


# family name -> [law] keys; "undamped" is the power law without damping
SWEEP_LAWS = {
    "linear": {"family": "linear"},
    "power": {"family": "power", "p": "3.0"},
    "exp_inv_square": {"family": "exp_inv_square"},
    "power_log": {"family": "power_log", "p": "3.0", "q": "1.5"},
    "sub_exponential": {"family": "sub_exponential", "p": "2.5"},
    "undamped": {"family": "power", "p": "3.0"},
}


class FamilySweep(Workload):
    """One short run_experiment per law family plus an undamped run, files written."""

    name = "family_sweep"
    N, T_FINAL, STRIDE = 99, 20.0, 50

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.texts = {}
        for name, law in SWEEP_LAWS.items():
            scale = self.amplitude_scale()
            coeffs = dict(COEFFICIENTS)
            if name == "undamped":
                coeffs = {k: v for k, v in coeffs.items() if not k.startswith("a_")}
            initial = {k: scale_profile(v, scale) for k, v in INITIAL.items()}
            self.texts[name] = ini_text({
                "law": law,
                "coefficients": coeffs,
                "grid": {"n": str(49 if self.tiny else self.N)},
                "time": {"t_final": repr(4.0 if self.tiny else self.T_FINAL), "stride": str(self.STRIDE // 5 if self.tiny else self.STRIDE)},
                "initial": initial,
                "output": {"dir": self.work_dir, "name": name},
            })

    def setup(self) -> None:
        for text in self.texts.values():
            self.wd.config.parse_config_text(text)

    def run_round(self, ops: Ops) -> None:
        for name, text in self.texts.items():
            self.experiment_op(ops, name, text, write_files=True)


# trace name -> ([law] keys, initial amplitude scale) of the set-up simulations
ENVELOPE_TRACES = {
    "exp_inv_square": {"family": "exp_inv_square"},
    "power": {"family": "power", "p": "3.0"},
}
# Seeded eps_clip range: strictly between 2^-53 and 2^-52 (r0 = 1).  eps_clip
# floors the sample points r0^2 2^-k of feedback.lambda_limit and
# odecmp.hfl_screen; inside this range the same points are sampled on every
# seed except the deepest one, which is eps_clip itself.
EPS_CLIP_RANGE = (1.2e-16, 2.1e-16)
EPS_CLIP_DRIFT = 1e-9  # relative change of eps_clip from one fresh law to the next


class GeneralEnvelope(Workload):
    """Envelope calibration and checks on traces simulated during set-up.

    Every round parses a fresh [law] section for each trace that differs only
    in eps_clip.  eps_clip is part of the law's identity, so the per-law
    caches in transforms and odecmp start cold in every round, as in a fresh
    process.

    The traces do not depend on the seed: the calibration work changes
    erratically with the trace (up to threefold under a 2% change of the
    initial amplitudes), which would swamp any change in the code.  The seed
    only picks eps_clip inside EPS_CLIP_RANGE, where it moves one sample
    point of the law's limit estimates and no count of work.
    """

    name = "general_envelope"
    N, T_FINAL, STRIDE = 49, 60.0, 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.texts = {}
        for name, law in ENVELOPE_TRACES.items():
            self.texts[name] = ini_text({
                "law": law,
                "coefficients": COEFFICIENTS,
                "grid": {"n": str(self.N)},
                "time": {"t_final": repr(self.T_FINAL), "stride": str(self.STRIDE)},
                "initial": INITIAL,
            })
        self.eps_clip = self.rng.uniform(*EPS_CLIP_RANGE)
        self.law_count = 0

    def setup(self) -> None:
        wd = self.wd
        self.traces = {}
        for name, text in self.texts.items():
            cfg = wd.config.parse_config_text(text)
            trace = self.setup_ops.attempt(name, lambda: wd.sim.run(cfg.sim), check_trace, steps=trace_steps)
            if trace is None:
                raise RuntimeError(f"set-up simulation {name} failed: {self.setup_ops.failures}")
            self.traces[name] = trace

    def fresh_law(self, name):
        self.law_count += 1
        eps_clip = self.eps_clip * (1.0 + EPS_CLIP_DRIFT * self.law_count)
        law = dict(ENVELOPE_TRACES[name], eps_clip=repr(eps_clip))
        return self.wd.config.parse_config_text(ini_text({"law": law})).law

    def run_round(self, ops: Ops) -> None:
        h, tr = self.wd.harness, self.wd.transforms
        for name, trace in self.traces.items():
            law = self.fresh_law(name)
            ref = self.ref(name)
            e_ratio = float(trace.E[-1] / trace.E[0])

            def vs_ref(key, value):
                if not ref:
                    return []
                bad = [] if _rel_close(value, ref[key], CONSTANT_RTOL) else [f"{key} vs reference"]
                if not _rel_close(e_ratio, ref["E_ratio"], E_RATIO_RTOL):
                    bad.append("E(T)/E(0) vs reference")
                return bad

            def upper():
                env = h.calibrate_upper(trace, law, kind="general")
                return env, h.compare_to_envelope(trace, env, t_start=env.extras["t_calibration"])

            def check_upper(r):
                env, cmp = r
                bad = [] if cmp.passed and cmp.envelope_margins[1] <= UPPER_SLACK else ["upper margin"]
                return bad + vs_ref("upper_M", env.M)

            def lower():
                env = h.calibrate_lower(trace, law)
                return env, h.compare_to_envelope(trace, env)

            def check_lower(r):
                env, cmp = r
                bad = [] if cmp.passed and cmp.envelope_margins[0] >= LOWER_SLACK else ["lower margin"]
                return bad + vs_ref("lower_C_s", env.C_s)

            def integral():
                beta = tr.beta_floor(law, trace.e0)
                return h.check_integral_inequality(trace, lambda y: tr.optimal_weight(law, y, beta))

            def check_integral(chk):
                bad = [] if math.isfinite(chk.M) and chk.M > 0.0 else ["finite M"]
                return bad + vs_ref("integral_M", chk.M)

            ops.attempt(f"{name}/upper", upper, check_upper)
            ops.attempt(f"{name}/lower", lower, check_lower)
            ops.attempt(f"{name}/integral", integral, check_integral)


WORKLOADS = {w.name: w for w in (ReferenceCubic, FamilySweep, GeneralEnvelope)}
