import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfree import noncross as ncx


def enumerate_set_partitions(n: int):
    """All set partitions of {1..n} (restricted-growth enumeration)."""
    if n == 0:
        yield ()
        return

    def grow(i, blocks):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from grow(i + 1, blocks)
        blocks.pop()

    yield from grow(1, [])


def enumerate_nc_oracle(n: int) -> list[ncx.NCPartition]:
    """Backtracking oracle: filter all set partitions for non-crossing."""
    return [ncx.nc(n, bs) for bs in enumerate_set_partitions(n) if ncx.is_noncrossing(bs)]


def rotate(p: ncx.NCPartition, shift: int = 1) -> ncx.NCPartition:
    """Cyclic relabeling i -> i + shift (mod n)."""
    n = p.n
    if n == 0:
        return p
    return ncx.nc(n, [tuple(sorted((x - 1 + shift) % n + 1 for x in b))
                      for b in p.blocks])


def test_catalan_counts():
    for n in range(9):
        c = ncx.catalan(n)
        assert len(ncx.enumerate_nc(n)) == c
        assert len(ncx.enumerate_tl(2 * n)) == c


def test_enumeration_against_backtracking_oracle():
    for n in range(7):
        fast = {p.blocks for p in ncx.enumerate_nc(n)}
        slow = {p.blocks for p in enumerate_nc_oracle(n)}
        assert fast == slow


def test_tl_small_frozen():
    assert [t.blocks for t in ncx.enumerate_tl(2)] == [((1, 2),)]
    got = {t.blocks for t in ncx.enumerate_tl(4)}
    assert got == {(((1, 2)), ((3, 4))), (((1, 4)), ((2, 3)))}
    assert len(ncx.enumerate_nc(4)) == 14


def test_kreweras_frozen_examples():
    assert ncx.kreweras(ncx.nc_one(2)) == ncx.nc_zero(2)
    assert ncx.kreweras(ncx.nc(4, [(1, 4), (2, 3)])).blocks == ((1, 3), (2,), (4,))
    assert ncx.kreweras(ncx.nc(4, [(1, 2), (3, 4)])).blocks == ((1,), (2, 4), (3,))


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_oracle_and_rank(n):
    for p in ncx.enumerate_nc(n):
        k = ncx.kreweras(p)
        assert k == ncx.kreweras_oracle(p)
        assert p.num_blocks + k.num_blocks == n + 1


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_kreweras_square_is_rotation(n, data):
    pool = ncx.enumerate_nc(n)
    p = data.draw(st.sampled_from(pool))
    assert ncx.kreweras(ncx.kreweras(p)) == rotate(p, -1)


def test_mobius_values():
    assert ncx.mobius_nc(ncx.nc_zero(2), ncx.nc_one(2)) == -1
    assert ncx.mobius_nc(ncx.nc_zero(3), ncx.nc_one(3)) == 2
    tau = ncx.nc(4, [(1, 2), (3, 4)])
    assert ncx.mobius_nc(tau, tau) == 1
    for n in range(1, 7):
        want = (-1) ** (n - 1) * ncx.catalan(n - 1)
        assert ncx.mobius_nc(ncx.nc_zero(n), ncx.nc_one(n)) == want


def test_mobius_defining_recursion():
    # sum over the interval [pi, tau] of mu(sigma, tau) is [pi == tau]
    for n in range(6):
        for tau in ncx.enumerate_nc(n):
            for pi in ncx.enumerate_nc(n):
                if not ncx.refines(pi, tau):
                    continue
                total = sum(ncx.mobius_nc(sigma, tau)
                            for sigma in ncx.enumerate_nc(n)
                            if ncx.refines(pi, sigma) and ncx.refines(sigma, tau))
                assert total == (1 if pi == tau else 0)


@pytest.mark.parametrize("n", range(8))
def test_mobius_to_one_sums_to_delta(n):
    # the closed form over Kreweras classes against the defining identity:
    # sum of mu(sigma, 1_n) over sigma >= pi is [pi == 1_n]
    one = ncx.nc_one(n)
    to_one = {p: ncx.mobius_nc(p, one) for p in ncx.enumerate_nc(n)}
    for pi in to_one:
        total = sum(m for sigma, m in to_one.items() if ncx.refines(pi, sigma))
        assert total == (1 if pi == one else 0), pi


def test_mobius_requires_refinement():
    with pytest.raises(ValueError):
        ncx.mobius_nc(ncx.nc_one(3), ncx.nc_zero(3))


def test_double_bijection_paper_example():
    pi = ncx.nc(6, [(1, 6), (2, 3, 4, 5)])
    assert ncx.double_bijection(pi).blocks == (
        (1, 12), (2, 11), (3, 10), (4, 5), (6, 7), (8, 9))


def test_double_bijection_tiny_and_bijective():
    assert ncx.double_bijection(ncx.nc_one(1)).blocks == ((1, 2),)
    for n in range(1, 7):
        images = {ncx.double_bijection(p).blocks for p in ncx.enumerate_nc(n)}
        assert len(images) == ncx.catalan(n)
        assert images == {t.blocks for t in ncx.enumerate_tl(2 * n)}


def test_is_starry_simple(a2):
    loop = a2.path_from_vertices(["v0", "v1", "v0"])
    assert ncx.is_starry(a2, loop)
    loop4 = a2.path_from_vertices(["v0", "v1", "v0", "v1", "v0"])
    assert ncx.is_starry(a2, loop4)


def test_is_starry_multigraph(dbl):
    e0, e1 = dbl.out_edges(0)
    # edges 2 and 3 mutual reversals, edges 4 and 1 likewise: starry
    p_good = dbl.path(0, (e0, dbl.erev[e1], e1, dbl.erev[e0]))
    assert ncx.is_starry(dbl, p_good)
    # the return leg uses the other parallel edge: not starry
    p_bad = dbl.path(0, (e0, dbl.erev[e0], e1, dbl.erev[e1]))
    assert not ncx.is_starry(dbl, p_bad)


def test_is_starry_rejects_odd_length(a2):
    with pytest.raises(ValueError):
        ncx.is_starry(a2, a2.path_from_vertices(["v0", "v1"]))


def test_kreweras_class_structure_examples():
    ok, _ = ncx.kreweras_class_structure(ncx.nc(4, [(1, 4), (2, 3)]))
    assert ok
    ok, _ = ncx.kreweras_class_structure(ncx.nc(2, [(1, 2)]))
    assert ok


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_class_structure_exhaustive(n):
    for t in ncx.enumerate_tl(2 * n):
        ok, witness = ncx.kreweras_class_structure(t)
        assert ok, witness


def test_epsilon_identity_examples():
    ok, _ = ncx.epsilon_identity_check(ncx.nc(2, [(1, 2)]))
    assert ok
    ok, _ = ncx.epsilon_identity_check(ncx.nc(4, [(1, 4), (2, 3)]))
    assert ok


@pytest.mark.parametrize("n", range(1, 7))
def test_epsilon_identity_exhaustive(n):
    for t in ncx.enumerate_tl(2 * n):
        ok, witness = ncx.epsilon_identity_check(t)
        assert ok, witness


def test_noncrossing_validation():
    with pytest.raises(ValueError):
        ncx.nc(4, [(1, 3), (2, 4)])
    with pytest.raises(ValueError):
        ncx.nc(3, [(1, 2)])


def _crosses(blocks):
    # reference: some i < k < j < l with {i, j} in one block and {k, l} in another
    for a, b in itertools.permutations(blocks, 2):
        for i, j in itertools.combinations(sorted(a), 2):
            for k, l in itertools.combinations(sorted(b), 2):
                if i < k < j < l:
                    return True
    return False


def test_noncrossing_scan_against_four_index_test():
    total = 0
    for n in range(9):
        for bs in enumerate_set_partitions(n):
            total += 1
            assert ncx.is_noncrossing(bs) == (not _crosses(bs)), bs
    assert total == 5296
