"""Import-level checks.

Cold start: the package and every experiment path load no scipy.  scipy is
needed only by the comparison ODE (`odecmp.solve_comparison`), which imports
it when called.  Importing the package also builds and loads no compiled
time step and creates no cache directory: that happens on the first time
step.  These checks run in a fresh interpreter with an empty cache
directory, because this test process has scipy and the step loaded already.

Binding sites: the benchmark's tracer (`perfbench/tracing.py`) wraps package
functions by module and attribute name, so each name it lists must exist.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = textwrap.dedent(
    """
    import dataclasses
    import os
    import shutil
    import stat
    import sys

    sys.path.insert(0, sys.argv[1])

    import wavedecay
    import wavedecay.cli
    assert "scipy" not in sys.modules, "importing the package loaded scipy"
    assert wavedecay._kernels._chosen is None, "importing the package loaded a time step"
    cache = os.path.join(os.environ["XDG_CACHE_HOME"], "wavedecay")
    assert not os.path.exists(cache), "importing the package created the cache directory"

    cfg = wavedecay.load_config(sys.argv[2])
    cfg.sim = dataclasses.replace(cfg.sim, n=49, t_final=20.0, stride=20)
    res = wavedecay.run_experiment(cfg, write_files=False)
    assert res.summary["n"] == 49
    assert "scipy" not in sys.modules, "run_experiment loaded scipy"
    if shutil.which("cc"):
        assert wavedecay.active_backend() == "c"
        assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700

    law = wavedecay.make_feedback("power", p=3.0, r0=1.0)
    wavedecay.solve_comparison(law, 1.0, 1.0, horizon=10.0)
    assert "scipy.integrate" in sys.modules
    print("ok")
    """
)


def test_scipy_loads_only_for_the_comparison_ode(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", PROBE, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "configs", "cubic_damping.ini")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "ok"


def test_benchmark_tracer_binding_sites_exist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import wavedecay as wd

    advance = wd._kernels.advance
    tracer = tracing.Tracer(wd)
    try:
        tracer.install()  # KeyError when a wrapped name no longer exists
        assert wd._kernels.advance is not advance
    finally:
        tracer.uninstall()
    assert wd._kernels.advance is advance
