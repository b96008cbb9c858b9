"""Command-line interface.

Subcommands:
  calc       feedback calculus table and envelope values (tab-separated) of the
             envelope calibrated on --trace, else of the unit one (beta = M = 1)
  simulate   config -> trace CSV (optionally the full experiment pipeline)
  fit        trace CSV -> tail-exponent report
  compare    'trace': trace vs calibrated envelope; 'ode': comparison-ODE CSV
  suite      synthetic decay-bound suite plus quick invariant batteries
  sweep      run every config in a directory through the full pipeline

Exit codes: 0 on pass, 1 on any failed assertion, 2 on config errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import ConfigError, load_config, parse_fit_window
from .feedback import LawError, eval_H, eval_H_prime, lambda_H, make_feedback
from .harness import (
    LOWER_UNSCREENED,
    HarnessError,
    _atomic_write,
    _fmt,
    calibrate_lower,
    calibrate_upper,
    default_fit_window,
    envelope_summary,
    fit_tail_exponent,
    lemma_suite,
    run_experiment,
)
from .numutil import QuadratureError, RootError, log_midpoints
from .odecmp import ComparisonError, K_inverse, solve_comparison
from .sim import EnergyTrace, SimConfig, SimError, run
from .transforms import DecayEnvelope, TransformError, envelope_value, eval_L, upper_kind

PASS, FAIL, CONFIG_ERR = 0, 1, 2


def _parse_grid(text: str, default_lo: float, default_hi: float, default_n: int = 50):
    if not text:
        return log_midpoints(default_lo, default_hi, default_n)
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"grid must be LO:HI:N, got {text!r}") from None
    if not (0.0 < lo < hi < math.inf) or n < 2:
        raise ConfigError(f"grid needs finite 0 < LO < HI and N >= 2, got {text!r}")
    return log_midpoints(lo, hi, n)


def _load_trace(path: str) -> EnergyTrace:
    try:
        return EnergyTrace.from_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc


def _cmd_calc(args) -> int:
    cfg = load_config(args.config)
    law = cfg.law
    if args.calculus:
        try:
            xs = [float(tok) for tok in args.calculus.split(",")]
        except ValueError:
            xs = []
        if not (xs and all(map(math.isfinite, xs))):
            raise ConfigError(f"--calculus must be finite numbers, got {args.calculus!r}")
        print("x\tH\tH_prime\tlambda")
        for x in xs:
            lam = lambda_H(law, x) if x > 0.0 else math.nan
            print(f"{x:.12g}\t{eval_H(law, x):.12g}\t{eval_H_prime(law, x):.12g}\t{lam:.12g}")
        if not args.grid and not args.trace:
            return PASS

    kind = args.kind or upper_kind(law, cfg.envelope.kind)
    if args.trace:
        trace = _load_trace(args.trace)
        window = default_fit_window(trace.t, cfg.fit.window)
        if kind == "lower":
            env = calibrate_lower(trace, law, T1=cfg.envelope.T1, window=window)
        else:
            env = calibrate_upper(trace, law, kind=kind, window=window)
    else:
        env = DecayEnvelope(kind=kind, law=law)  # the unit envelope: beta = M = 1
    lo = env.domain_start()
    ts = _parse_grid(args.grid, max(lo, 1e-6), max(lo, 1e-6) * 1e4)
    print("t\tenvelope")
    for t in ts:
        if t < lo * (1.0 - 1e-12):
            continue
        print(f"{t:.12g}\t{envelope_value(env, t):.12g}")
    return PASS


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.full:
        result = run_experiment(cfg)
        print(f"trace:  {result.trace_path}")
        print(f"report: {result.report_txt}")
        return PASS if result.passed else FAIL
    trace = run(cfg.sim, meta={"config_digest": cfg.digest, "name": cfg.name})
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, cfg.name + ".trace.csv")
    _atomic_write(path, trace.csv_text())
    print(path)
    return PASS


def _cmd_fit(args) -> int:
    if not (math.isfinite(args.stretch_p) and args.stretch_p > 0.0):
        raise ConfigError(f"--stretch-p must be finite and positive, got {args.stretch_p!r}")
    fracs = parse_fit_window(args.window_frac, "--window-frac") if args.window_frac else None
    trace = _load_trace(args.trace)
    window = default_fit_window(trace.t, fracs) if fracs else None
    rep = fit_tail_exponent(trace, window=window, mode=args.mode, stretch_p=args.stretch_p)
    lines = [
        f"mode={rep.mode}",
        f"window_lo={rep.window[0]:.12g}",
        f"window_hi={rep.window[1]:.12g}",
        f"slope={rep.slope:.12g}",
        f"stderr={rep.stderr:.12g}",
        f"r_squared={rep.r_squared:.12g}",
        f"n_points={rep.n_points}",
    ]
    out = "\n".join(lines)
    if args.out:
        _atomic_write(args.out, out + "\n")
    print(out)
    return PASS


def _cmd_compare_trace(args) -> int:
    """Print the run's envelope report lines; exit 1 on a failed envelope or calibration."""
    cfg = load_config(args.config)
    trace = _load_trace(args.trace)
    entries = envelope_summary(trace, cfg, default_fit_window(trace.t, cfg.fit.window))
    for k, v in entries.items():
        print(f"{k}={_fmt(v)}")
    failed = any(
        v is False or (k.endswith("_envelope") and v != LOWER_UNSCREENED)
        for k, v in entries.items()
    )
    return FAIL if failed else PASS


def _cmd_compare_ode(args) -> int:
    for name, value in (("--kappa", args.kappa), ("--z0", args.z0)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    cfg = load_config(args.config)
    law = cfg.law
    kappa = args.kappa if args.kappa is not None else (
        cfg.sim.a_field.floor if cfg.sim.a_field is not None else 1.0
    )
    z0 = args.z0 if args.z0 is not None else law.r0**2
    hi_default = 100.0
    ts = _parse_grid(args.grid, 1e-2, hi_default)
    sol = solve_comparison(law, kappa, z0, horizon=max(ts) * 1.0000001)
    env = DecayEnvelope(kind="lower", law=law, gamma_s=1.0, C_s=1.0, T0=0.0, T1=0.0)
    lo_env = env.domain_start()
    print("t,z,K_inverse,lower_envelope")
    for t in ts:
        z = sol.z_at(t)
        kinv = K_inverse(law, kappa * t, z0) if t > 0.0 else z0
        le = envelope_value(env, t) if t >= lo_env else math.nan
        print(f"{t:.12g},{z:.12g},{kinv:.12g},{le:.12g}")
    return PASS


def _cmd_suite(args) -> int:
    ok = True
    rep = lemma_suite()
    for e in rep.entries:
        print(f"[{'PASS' if e.passed else 'FAIL'}] {e.name}: {e.detail}")
    ok &= rep.passed

    # quick invariant batteries
    law = make_feedback("power", p=3.0, r0=1.0)
    ls = [abs(eval_L(law, 1.0) - 0.25), abs(eval_L(law, 2.0) - 0.5)]
    ok_l = max(ls) < 1e-9
    print(f"[{'PASS' if ok_l else 'FAIL'}] conjugate_closed_forms: max dev {max(ls):.2e}")
    ok &= ok_l

    xs = np.linspace(0.0, 1.0, 50)
    ys = np.linspace(0.0, 4.0, 50)
    worst = 0.0
    from .transforms import conjugate

    for y in ys:
        cy = conjugate(law, float(y))
        worst = min(worst, float(np.min(cy - (xs * y - xs**2))))
    ok_f = worst >= -1e-10
    print(f"[{'PASS' if ok_f else 'FAIL'}] fenchel_inequality: min slack {worst:.2e}")
    ok &= ok_f

    smallcfg = SimConfig(
        law=law, alpha_field=None, a_field=None, n=63, cfl=0.9, t_final=1.0, stride=50,
        u0="sine:1:1.0", u1="zero", v0="zero", v1="zero",
    )
    tr = run(smallcfg)
    drift = float(np.max(np.abs(tr.E - tr.e0)) / tr.e0)
    ok_c = drift < 1e-11
    print(f"[{'PASS' if ok_c else 'FAIL'}] micro_conservation: drift {drift:.2e}")
    ok &= ok_c

    sol = solve_comparison(law, 1.0, 1.0, horizon=100.0)
    dev = float(np.max(np.abs(sol.z - 1.0 / (1.0 + sol.t))))
    ok_z = dev < 1e-8
    print(f"[{'PASS' if ok_z else 'FAIL'}] comparison_ode_analytic: max dev {dev:.2e}")
    ok &= ok_z

    print("suite:", "PASS" if ok else "FAIL")
    return PASS if ok else FAIL


def _sweep_one(path: str, out: str | None) -> tuple[str, bool, str]:
    cfg = load_config(path)
    if out:
        cfg.out_dir = out
    result = run_experiment(cfg)
    return path, result.passed, result.report_txt


def _cmd_sweep(args) -> int:
    try:
        names = os.listdir(args.configs)
    except OSError as exc:
        raise ConfigError(f"cannot read config directory {args.configs}: {exc}") from exc
    paths = sorted(os.path.join(args.configs, f) for f in names if f.endswith(".ini"))
    if not paths:
        print(f"no .ini configs found in {args.configs}", file=sys.stderr)
        return CONFIG_ERR
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_one, paths, [args.out] * len(paths)))
    else:
        results = [_sweep_one(p, args.out) for p in paths]
    code = PASS
    for path, passed, report in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {path} -> {report}")
        if not passed:
            code = FAIL
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wavedecay")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calc", help="calculus table and envelope values")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", default="", help="time grid LO:HI:N (log-spaced)")
    p.add_argument("--kind", choices=("general", "simplified", "lower"), default=None)
    p.add_argument("--trace", default=None, help="trace CSV used to calibrate the envelope")
    p.add_argument("--calculus", default="", help="comma-separated x values to tabulate H, H', lambda")
    p.set_defaults(func=_cmd_calc)

    p = sub.add_parser("simulate", help="run the solver and write the trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--full", action="store_true", help="also run fits/envelopes and write reports")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a tail exponent to a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", choices=("power", "loglog", "stretched", "exp"), default="power")
    p.add_argument("--stretch-p", type=float, default=3.0)
    p.add_argument("--window-frac", default=None,
                   help="LO,HI fractions of the log-time span (default 2/3,1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="trace-vs-envelope report, or comparison-ODE CSV")
    csub = p.add_subparsers(dest="what", required=True)
    pt = csub.add_parser("trace")
    pt.add_argument("--trace", required=True)
    pt.add_argument("--config", required=True)
    pt.set_defaults(func=_cmd_compare_trace)
    po = csub.add_parser("ode")
    po.add_argument("--config", required=True)
    po.add_argument("--grid", default="")
    po.add_argument("--kappa", type=float, default=None)
    po.add_argument("--z0", type=float, default=None)
    po.set_defaults(func=_cmd_compare_ode)

    p = sub.add_parser("suite", help="synthetic decay-bound suite and invariant batteries")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("sweep", help="run every config in a directory")
    p.add_argument("--configs", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (experiments are independent)")
    p.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERR
    except (
        SimError, TransformError, HarnessError, ComparisonError, LawError, QuadratureError, RootError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
