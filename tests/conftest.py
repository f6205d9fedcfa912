import multiprocessing

import numpy as np
import pytest
from hypothesis import strategies as st

from specvol.volmodel import Constant, Oscillating, PiecewiseConstant, Sinusoid


def constant_specs():
    return st.floats(0.1, 5.0, allow_nan=False).map(Constant)


def piecewise_specs(max_blocks=6):
    return st.lists(
        st.floats(0.1, 5.0, allow_nan=False), min_size=1, max_size=max_blocks
    ).map(lambda vs: PiecewiseConstant(tuple(vs)))


def sinusoid_specs():
    return st.builds(
        lambda base, frac, cycles, phase: Sinusoid(base, frac * base, cycles, phase),
        st.floats(0.5, 3.0, allow_nan=False),
        st.floats(0.0, 0.8, allow_nan=False),
        st.integers(1, 3),
        st.floats(0.0, 2 * np.pi, allow_nan=False),
    )


def oscillating_specs():
    return st.integers(2, 4096).map(Oscillating)


def any_specs():
    return st.one_of(constant_specs(), piecewise_specs(), sinusoid_specs(), oscillating_specs())


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process, such as an unclosed pool."""
    yield
    left = multiprocessing.active_children()
    for proc in left:   # so that one leak does not fail every later test
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"{len(left)} child process(es) left running: {left}")
