import threading

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


def pool_threads():
    """The live worker threads of thread pools."""
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")]


@pytest.fixture(autouse=True)
def no_pool_thread_left():
    """Fail a test that leaves a live pool thread, such as an unclosed pool."""
    before = set(pool_threads())
    yield
    left = [t for t in pool_threads() if t not in before]   # so that one leak fails one test
    if left:
        pytest.fail(f"{len(left)} pool thread(s) left running: {left}")
