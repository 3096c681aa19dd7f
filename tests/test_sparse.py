"""The arithmetic that GradedElement and TowerElement share.

Both are sparse combinations over a graph: paths for the graded algebra,
level-n path pairs for the towers.  Each contract below runs on both.
"""

import math
from types import SimpleNamespace

import pytest

from graphfree import cumulants, towers as tw
from graphfree.gralg import GradedElement, max_abs_diff
from graphfree.graphs import GraphError, enumerate_paths, line_graph
from graphfree.verification import _desc_diff


def _graded(graph, level):
    """(basis keys of degree 2*level, builder from a coefficient dict)."""
    keys = enumerate_paths(graph, graph.star, 2 * level, None)
    return keys, lambda terms: GradedElement(graph, terms)


def _tower(graph, level):
    keys = tw.pair_basis(graph, level)
    return keys, lambda terms: tw.TowerElement(graph, level, terms)


KINDS = {"graded": _graded, "tower": _tower}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


@pytest.fixture
def g():
    return line_graph(4, star_first=True)


def _sample(kind, graph):
    keys, make = kind(graph, 3)
    assert len(keys) >= 3
    return keys, make, make({k: 0.5 - i for i, k in enumerate(keys[:3])})


def test_zeros_are_dropped(kind, g):
    keys, make, x = _sample(kind, g)
    assert make({keys[0]: 0.0, keys[1]: 2.0}).terms == {keys[1]: 2.0}
    assert set(x.terms) == set(keys[:3])
    for zero in (x + (-1.0) * x, x - x, 0 * x, 0.0 * x):
        assert zero.is_zero() and zero.terms == {}
        assert zero.graph is g
    assert (-x).terms == {k: -c for k, c in x.terms.items()}


def test_results_are_new_elements(kind, g):
    keys, make, x = _sample(kind, g)
    y = 1.0 * x
    assert type(y) is type(x) and y.terms == x.terms and y.terms is not x.terms
    s = x + y
    assert s.terms == {k: 2 * c for k, c in x.terms.items()}
    assert x.terms == y.terms and x.coeff(keys[0]) == 0.5 and x.coeff(keys[3]) == 0.0


def test_sum_across_graphs_is_refused(kind, g):
    other = line_graph(4, star_first=True)
    _, _, x = _sample(kind, g)
    _, _, y = _sample(kind, other)
    with pytest.raises(GraphError):
        x + y
    with pytest.raises(GraphError):
        x.norm_inf_diff(y)


def test_sum_across_levels_is_refused(g):
    x = tw.TowerElement.basis(g, tw.pair_basis(g, 2)[0])
    _, _, y = _sample(_tower, g)
    with pytest.raises(GraphError):
        x + y
    with pytest.raises(GraphError):
        x.norm_inf_diff(y)


def test_norm_against_zero_of_another_level(kind, g):
    _, _, x = _sample(kind, g)
    _, make_low = kind(g, 1)
    zero = make_low({})
    assert x.norm_inf_diff(zero) == 1.5
    assert zero.norm_inf_diff(x) == 1.5
    assert zero.norm_inf_diff(zero) == 0.0


def test_b_diff_norm_disjoint_keys():
    assert cumulants.b_diff_norm({0: 1.0, 2: -3.0}, {1: 2.5}) == 3.0
    assert cumulants.b_diff_norm({}, {1: -2.5}) == 2.5
    assert cumulants.b_diff_norm({}, {}) == 0.0


def test_max_helpers_keep_a_nan_in_any_key_order():
    nan = float("nan")
    for a in ({1: 0.0, 2: nan}, {2: nan, 1: 0.0}, {1: 2.0, 2: nan}, {2: nan, 1: 2.0}):
        assert math.isnan(max_abs_diff(a, {}))
        assert math.isnan(max_abs_diff({}, a))
        assert math.isnan(cumulants.b_norm(a))
    assert math.isnan(max_abs_diff({0: 1.0}, {0: nan, 1: 5.0}))
    assert cumulants.b_norm({0: 0.5, 1: -3.0}) == 3.0
    assert cumulants.b_norm({}) == 0.0
    # _desc_diff reads only atoms and diffuse: raw stand-ins carry a NaN
    # anywhere, where AlgDesc would refuse most of them
    desc = SimpleNamespace(atoms=(0.25,), diffuse=((1.0, 0.75),))
    for bad in (SimpleNamespace(atoms=(nan,), diffuse=((1.0, 0.75),)),
                SimpleNamespace(atoms=(0.25,), diffuse=((nan, 0.75),)),
                SimpleNamespace(atoms=(0.25,), diffuse=((1.0, nan),))):
        assert math.isnan(_desc_diff(desc, bad)) and math.isnan(_desc_diff(bad, desc))
    assert _desc_diff(desc, SimpleNamespace(atoms=(0.5,), diffuse=((1.0, 0.5),))) == 0.25
