import random

import numpy as np
import pytest

from graphfree.graphs import line_graph, named_graph


@pytest.fixture
def a2():
    return named_graph("a2")


@pytest.fixture
def a3():
    return named_graph("a3")


@pytest.fixture
def a4():
    return named_graph("a4")


@pytest.fixture
def dbl():
    return named_graph("dbl")


@pytest.fixture
def fork():
    return named_graph("fork")


@pytest.fixture
def a3_star():
    return line_graph(3, star_first=True)


@pytest.fixture
def a4_star():
    return line_graph(4, star_first=True)


@pytest.fixture
def battery():
    return {name: named_graph(name)
            for name in ("a2", "a3", "a4", "k1_2", "k1_3", "dbl")}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def py_rng():
    """The stdlib generator the library's seeded draws take."""
    return random.Random(20240817)
