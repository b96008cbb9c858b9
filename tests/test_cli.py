import configparser
import os
from pathlib import Path

import pytest

from wavedecay.cli import main

CONFIG = """
[law]
family = power
p = 3.0
r0 = 1.0

[coefficients]
alpha_profile = indicator
alpha_support = 0.4, 0.9
alpha_floor = 0.2
a_profile = indicator
a_support = 0.2, 0.6
a_floor = 1.0

[grid]
n = 99

[time]
t_final = 60
stride = 40

[output]
dir = {out}
name = cli1
"""


# a fit window and a lower-envelope shift that differ from the defaults
WINDOWED = "\n[fit]\nwindow = 0.3, 1.0\n\n[envelope]\nt1 = 50\n"

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    return str(path)


@pytest.fixture()
def windowed_run(tmp_path, capsys):
    """Config path, trace path and .report.kv lines of a full windowed run."""
    path = tmp_path / "windowed.ini"
    path.write_text(CONFIG.format(out=tmp_path / "wout") + WINDOWED)
    main(["simulate", "--config", str(path), "--full"])
    trace = capsys.readouterr().out.splitlines()[0].split()[-1]
    kv = Path(trace.replace(".trace.csv", ".report.kv")).read_text().splitlines()
    return str(path), trace, kv


def test_simulate_writes_trace(cfg_path, tmp_path, capsys):
    assert main(["simulate", "--config", cfg_path]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("cli1.trace.csv")
    first = (os.stat(printed).st_ino, Path(printed).read_bytes())
    assert main(["simulate", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.strip() == printed
    assert (os.stat(printed).st_ino, Path(printed).read_bytes()) == first
    assert os.listdir(os.path.dirname(printed)) == ["cli1.trace.csv"]


def test_simulate_full_pipeline(cfg_path, tmp_path, capsys):
    assert main(["simulate", "--config", cfg_path, "--full"]) == 0
    out = capsys.readouterr().out
    assert "report" in out


@pytest.mark.parametrize("p", ["1.001", "1.01"])
def test_simulate_full_near_linear_power(tmp_path, p, capsys):
    # (H')^-1 underflows at every lower-calibration sample (1.001) or at most
    # of them (1.01): the run writes its report and exits, with no traceback
    path = tmp_path / "near.ini"
    text = CONFIG.format(out=tmp_path / "out").replace("p = 3.0", f"p = {p}")
    path.write_text(text.replace("n = 99", "n = 49").replace("t_final = 60", "t_final = 200"))
    assert main(["simulate", "--config", str(path), "--full"]) in (0, 1)
    assert "report" in capsys.readouterr().out


def test_fit_subcommand(cfg_path, tmp_path, capsys):
    main(["simulate", "--config", cfg_path, "--full"])
    trace = capsys.readouterr().out.splitlines()[0].split()[-1]
    report = tmp_path / "fit.kv"
    assert main(["fit", "--trace", trace, "--mode", "power", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "slope=" in out and "r_squared=" in out
    assert report.read_text() == out
    # the default window is the run's default [fit] window
    kv = Path(trace.replace(".trace.csv", ".report.kv")).read_text().splitlines()
    run_lo = next(line for line in kv if line.startswith("fit_window_lo="))
    assert run_lo.replace("fit_", "", 1) in out.splitlines()


def test_compare_trace_subcommand(cfg_path, capsys):
    main(["simulate", "--config", cfg_path])
    trace = capsys.readouterr().out.strip()
    assert main(["compare", "trace", "--trace", trace, "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "upper_pass=True" in out
    assert "lower_pass=True" in out


def test_compare_trace_prints_the_run_report(windowed_run, capsys):
    cfg, trace, kv = windowed_run
    main(["compare", "trace", "--trace", trace, "--config", cfg])
    printed = capsys.readouterr().out.splitlines()
    assert printed and set(printed) <= set(kv)
    assert [line for line in kv if line.startswith(("upper_", "lower_"))] == printed


def test_windowed_lower_envelope_touches(windowed_run):
    # t1 = 50 lies beyond the window start: the envelope still touches the trace
    _, _, kv = windowed_run
    lo = next(line for line in kv if line.startswith("lower_margin_min="))
    assert abs(float(lo.split("=")[1]) - 1.0) <= 1e-6


def test_calc_trace_honours_window_and_t1(windowed_run, capsys):
    cfg, trace, _ = windowed_run
    assert main(["calc", "--config", cfg, "--trace", trace, "--kind", "lower"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ts = [float(line.split("\t")[0]) for line in lines[lines.index("t\tenvelope") + 1:]]
    assert ts and min(ts) >= 50.0


@pytest.mark.parametrize("argv", [
    ["fit", "--trace", "{missing}"],
    ["compare", "trace", "--trace", "{missing}", "--config", "{cfg}"],
    ["calc", "--trace", "{missing}", "--config", "{cfg}"],
])
def test_unreadable_trace_exit_code(argv, cfg_path, tmp_path, capsys):
    # a missing file, a row of three fields and a cell that is not a number
    short = tmp_path / "short.trace.csv"
    short.write_text("t,E,E1,dissipation\n0,1,1,0\n1,0.5,0.5\n")
    text = tmp_path / "text.trace.csv"
    text.write_text("t,E,E1,dissipation\n0,1,1,0\n1,half,0.5,0\n")
    for path in (tmp_path / "nope.trace.csv", short, text):
        assert main([a.format(missing=path, cfg=cfg_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read trace") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["calc", "--config", "{cfg}", "--grid", "a:b:3"],
    ["calc", "--config", "{cfg}", "--calculus", "abc"],
    ["compare", "ode", "--config", "{cfg}", "--grid", "1:2:x"],
    ["fit", "--trace", "{trace}", "--window-frac", "a,b"],
    ["fit", "--trace", "{trace}", "--window-frac", "0.5"],
    ["sweep", "--configs", "{missing}"],
    ["fit", "--trace", "{trace}", "--mode", "stretched", "--stretch-p", "0"],
    ["fit", "--trace", "{trace}", "--mode", "stretched", "--stretch-p", "-1"],
    ["fit", "--trace", "{trace}", "--mode", "stretched", "--stretch-p", "nan"],
    ["fit", "--trace", "{trace}", "--mode", "stretched", "--stretch-p", "inf"],
    ["calc", "--config", "{cfg}", "--grid", "1:inf:3"],
    ["calc", "--config", "{cfg}", "--grid", "nan:2:3"],
    ["calc", "--config", "{cfg}", "--calculus", "nan"],
    ["calc", "--config", "{cfg}", "--calculus", "0.5,inf"],
    ["compare", "ode", "--config", "{cfg}", "--grid", "1:inf:3"],
    ["compare", "ode", "--config", "{cfg}", "--kappa", "nan"],
    ["compare", "ode", "--config", "{cfg}", "--kappa", "inf"],
    ["compare", "ode", "--config", "{cfg}", "--z0", "nan"],
    ["compare", "ode", "--config", "{cfg}", "--z0", "inf"],
])
def test_unparsable_argument_exit_code(argv, cfg_path, tmp_path, capsys):
    # every other input is valid: the trace is readable, the config parses
    trace = tmp_path / "ok.trace.csv"
    trace.write_text("t,E,E1,dissipation\n" + "".join(
        f"{t},{1 / (1 + t)},{1 / (1 + t)},0\n" for t in range(0, 100, 5)))
    args = [a.format(cfg=cfg_path, trace=trace, missing=tmp_path / "nope") for a in argv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_law_error_exit_code(cfg_path, capsys):
    assert main(["calc", "--config", cfg_path, "--calculus", "2.0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_root_error_exit_code(monkeypatch, capsys):
    # a root solve cut to one iteration cannot converge: an error line, exit 1
    from wavedecay import numutil, transforms

    short = lambda *args, **kwargs: numutil.newton_root(*args, **{**kwargs, "max_iter": 1})
    monkeypatch.setattr(transforms, "newton_root", short)
    cfg = str(CONFIGS / "exp_inv_square.ini")
    assert main(["calc", "--config", cfg, "--grid", "10:100:3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: root solve") and err.count("\n") == 1


def test_quadrature_error_exit_code(capsys):
    # the comparison ODE's quadrature gives up on this grid's far end
    cfg = str(CONFIGS / "cubic_damping.ini")
    assert main(["compare", "ode", "--config", cfg, "--grid", "1:1e30:3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max depth") and err.count("\n") == 1


def test_compare_ode_csv(cfg_path, capsys):
    assert main(["compare", "ode", "--config", cfg_path, "--grid", "1:20:5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,z,K_inverse,lower_envelope"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(first[2], abs=1e-8)  # z vs K-inversion


def test_calc_envelope_and_calculus(cfg_path, capsys):
    assert main(["calc", "--config", cfg_path, "--grid", "1:100:4",
                 "--calculus", "0.5,1.0"]) == 0
    out = capsys.readouterr().out
    assert "x\tH\tH_prime\tlambda" in out
    assert "t\tenvelope" in out


def test_sweep_directory(cfg_path, tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "one.ini").write_text(CONFIG.format(out=tmp_path / "sweepout"))
    assert main(["sweep", "--configs", str(cfg_dir)]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_sweep_parallel(cfg_path, tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs2"
    cfg_dir.mkdir()
    text = CONFIG.format(out=tmp_path / "sweepout2")
    (cfg_dir / "a.ini").write_text(text)
    (cfg_dir / "b.ini").write_text(text.replace("name = cli1", "name = cli2"))
    assert main(["sweep", "--configs", str(cfg_dir), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize("name", [path.name for path in sorted(CONFIGS.glob("*.ini"))])
def test_shipped_config_runs_end_to_end(name, tmp_path, capsys):
    cp = configparser.ConfigParser()
    cp.read(CONFIGS / name)
    cp["grid"]["n"] = "49"
    cp["time"].update(t_final="300", stride="20")
    small = tmp_path / name
    with open(small, "w") as fh:
        cp.write(fh)
    code = main(["simulate", "--config", str(small), "--full", "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    assert "report" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[law]\nfamily = power\np = 0.5\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exponent_the_family_does_not_take_exit_code(tmp_path, capsys):
    # q changes nothing in a power law, so setting it is a config error
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.format(out=tmp_path / "out").replace("p = 3.0\n", "p = 3.0\nq = 7.0\n"))
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "takes no q" in err


@pytest.mark.parametrize("amp", ["nan", "inf"])
def test_non_finite_profile_exit_code(amp, tmp_path, capsys):
    # a NaN or infinite amplitude fails as a config error, not in the node solve
    cp = configparser.ConfigParser()
    cp.read(CONFIGS / "cubic_damping.ini")
    cp["initial"]["u0"] = f"sine:1:{amp}"
    bad = tmp_path / "bad.ini"
    with open(bad, "w") as fh:
        cp.write(fh)
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "finite AMP" in err
