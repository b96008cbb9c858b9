import numpy as np
import pytest

import wavedecay as wd


@pytest.fixture(scope="session")
def power3():
    return wd.make_feedback("power", p=3.0, r0=1.0)


@pytest.fixture(scope="session")
def power5():
    return wd.make_feedback("power", p=5.0, r0=1.0)


@pytest.fixture(scope="session")
def linear_law():
    return wd.make_feedback("linear")


@pytest.fixture(scope="session")
def exp_inv():
    return wd.make_feedback("exp_inv_square")


def damped_config():
    """Small damped+coupled configuration shared by solver tests."""
    return wd.SimConfig(
        law=wd.make_feedback("power", p=3.0, r0=1.0),
        alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.2),
        a_field=wd.CoefficientField("indicator", (0.2, 0.6), 1.0),
        n=99,
        cfl=0.9,
        t_final=5.0,
        stride=5,
        u0="sine:1:1.0",
        u1="zero",
        v0="sine:2:0.5",
        v1="zero",
    )


@pytest.fixture(scope="session")
def damped_cfg():
    return damped_config()


def lagrange3(ts, es, tstar):
    """Quadratic interpolation of a trace sample triple at tstar."""
    out = 0.0
    for i in range(3):
        li = 1.0
        for k in range(3):
            if k != i:
                li *= (tstar - ts[k]) / (ts[i] - ts[k])
        out += es[i] * li
    return out


def trace_value_at(trace, tstar):
    j = int(np.searchsorted(trace.t, tstar))
    j = max(1, min(j, len(trace.t) - 2))
    return lagrange3(trace.t[j - 1 : j + 2], trace.E[j - 1 : j + 2], tstar)
