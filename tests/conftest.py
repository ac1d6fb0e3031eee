import tracemalloc

import pytest

from tridesign.construct import product
from tridesign.datasets import as_certificate, expand_special, load_dataset
from tridesign.gf2n import build_field
from tridesign.orbits import expand_certificate


def traced_peak_mib(call, *args):
    """Peak traced allocation of ``call(*args)`` above the level it
    started from, in MiB (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(*args)
        return (tracemalloc.get_traced_memory()[1] - start) / (1 << 20)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def f5():
    return build_field(5)


@pytest.fixture(scope="session")
def f6():
    return build_field(6)


@pytest.fixture(scope="session")
def f7():
    return build_field(7)


@pytest.fixture(scope="session")
def f12():
    return build_field(12)


@pytest.fixture(scope="session")
def f13():
    return build_field(13)


@pytest.fixture(scope="session")
def design6():
    return expand_special(load_dataset("design6"))


@pytest.fixture(scope="session")
def gdd6_2():
    return expand_special(load_dataset("gdd6-2"))


@pytest.fixture(scope="session")
def gdd12_6():
    return expand_certificate(as_certificate(load_dataset("gdd12-6")))


@pytest.fixture(scope="session")
def frob7_design():
    return expand_certificate(as_certificate(load_dataset("frob7")))


@pytest.fixture(scope="session")
def frob13_design():
    return expand_certificate(as_certificate(load_dataset("frob13")))


@pytest.fixture(scope="session")
def product12(design6):
    return product(design6, design6)
