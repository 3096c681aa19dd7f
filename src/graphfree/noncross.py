"""Non-crossing partitions, Temperley-Lieb pairings and their calculus.

Covers enumeration (Catalan families), Kreweras complements (fast route
plus a brute-force maximality oracle), the lattice Mobius function in
its closed form over Kreweras classes, the doubling bijection from NC(n)
onto pairings of 2n points, starry-path tests, and the two structural
identities of Kreweras classes used by the trace calculus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .graphs import Graph, Path

Block = tuple[int, ...]


@dataclass(frozen=True)
class NCPartition:
    """A non-crossing partition of {1..n}; blocks sorted by minimum."""

    n: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b or tuple(sorted(b)) != b:
                raise ValueError("blocks must be nonempty and sorted")
            seen.update(b)
        if len(seen) != sum(len(b) for b in self.blocks):
            raise ValueError("blocks must be disjoint")
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks must cover 1..{self.n}")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be sorted by minimum")
        if not _noncrossing(self.blocks):
            raise ValueError("partition is crossing")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def is_pairing(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)


def nc(n: int, blocks) -> NCPartition:
    """Canonicalizing constructor."""
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    return NCPartition(n, canon)


def nc_one(n: int) -> NCPartition:
    return nc(n, [range(1, n + 1)]) if n else NCPartition(0, ())


def nc_zero(n: int) -> NCPartition:
    return nc(n, [(i,) for i in range(1, n + 1)]) if n else NCPartition(0, ())


def _noncrossing(blocks) -> bool:
    """One pass over the points with a stack of open blocks.

    Blocks are sorted tuples of positive integers.  A block opens at its
    first point and pops at its last; it may be re-entered only while it
    is on top.  Re-entering a lower block means the block above it opened
    in between and closes later, i.e. the two cross.
    """
    owner = [-1] * (max((b[-1] for b in blocks if b), default=0) + 1)
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    stack = []
    for x, i in enumerate(owner):
        if i < 0:
            continue
        if not stack or stack[-1] != i:
            if x != blocks[i][0]:
                return False
            stack.append(i)
        if x == blocks[i][-1]:
            stack.pop()
    return True


def is_noncrossing(blocks) -> bool:
    return _noncrossing([tuple(sorted(b)) for b in blocks])


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# enumeration


def _nc_blocks(lo: int, hi: int, memo: dict | None = None) -> list[tuple[Block, ...]]:
    """All non-crossing block families on the interval {lo..hi}.

    Each family lists its blocks sorted by minimum, so it is canonical as
    it stands.  ``memo`` holds the families of every sub-interval for the
    length of one call; each is built once and its block tuples are shared.
    """
    if lo > hi:
        return [()]
    if memo is None:
        memo = {}
    key = (lo, hi)
    out = memo.get(key)
    if out is not None:
        return out
    out = memo[key] = []
    rest = range(lo + 1, hi + 1)
    # choose the block of lo as a sparse subsequence; gaps fill independently
    for mask in range(1 << len(rest)):
        block = (lo,) + tuple(x for i, x in enumerate(rest) if mask >> i & 1)
        partials = [()]
        for a, b in zip(block, block[1:] + (hi + 1,)):
            partials = [acc + sub for sub in _nc_blocks(a + 1, b - 1, memo)
                        for acc in partials]
        out.extend((block,) + acc for acc in partials)
    return out


# verify's catalan-counts check reads the largest lists in use, NC(n) and
# the pairings of 2n points for n <= 8; 16 entries hold every n up to 15.
@functools.lru_cache(maxsize=16)
def enumerate_nc(n: int) -> list[NCPartition]:
    """All of NC(n); |NC(n)| is the n-th Catalan number."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [nc(n, bs) for bs in _nc_blocks(1, n)]


@functools.lru_cache(maxsize=16)
def enumerate_tl(two_n: int) -> list[NCPartition]:
    """All Temperley-Lieb pairings of {1..two_n}."""
    if two_n % 2:
        raise ValueError("TL pairings need an even ground set")

    def pairings(points):
        if not points:
            yield ()
            return
        a = points[0]
        for j in range(1, len(points), 2):
            b = points[j]
            inner, outer = points[1:j], points[j + 1:]
            for pi in pairings(inner):
                for po in pairings(outer):
                    yield ((a, b),) + pi + po

    return [nc(two_n, bs) for bs in pairings(tuple(range(1, two_n + 1)))]


# ---------------------------------------------------------------------------
# Kreweras complement


def kreweras(p: NCPartition) -> NCPartition:
    """Kreweras complement via the cycle construction.

    With sigma the permutation cycling each block upward and c the long
    cycle i -> i+1, the complement's blocks are the cycles of
    sigma^{-1} . c; position i of the complement sits between i and i+1.
    """
    if p.n == 0:
        return p
    return nc(p.n, _kreweras_cycles(p.n, p.blocks))


def _kreweras_cycles(n: int, blocks) -> list[list[int]]:
    """The cycles of sigma^{-1} . c for the sorted blocks of a partition of {1..n}."""
    prv = [0] * (n + 2)  # sigma^{-1}, with c sending n to 1 through prv[n + 1]
    for b in blocks:
        prev = b[-1]
        for x in b:
            prv[x] = prev
            prev = x
    prv[n + 1] = prv[1]
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = prv[x + 1]
        cycles.append(cyc)
    return cycles


def kreweras_oracle(p: NCPartition) -> NCPartition:
    """Brute-force maximality oracle for the Kreweras complement.

    Starting from singletons on the interleaved copies (p's blocks at the
    odd points, q's at the even ones), merge any two blocks whose union
    keeps the interleaved partition non-crossing.  One sweep over the pairs
    suffices: the q whose interleaving with p is non-crossing form the
    interval [0_n, K(p)], so two blocks may merge exactly when they lie in
    one block of K(p), and greedy merging ends at K(p) in any order.
    """
    solids = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    blocks = [(i,) for i in range(1, p.n + 1)]
    for a in range(p.n):
        b = a + 1
        while b < len(blocks):
            trial = blocks[:b] + blocks[b + 1:]
            trial[a] = tuple(sorted(blocks[a] + blocks[b]))
            if is_noncrossing(solids + [tuple(2 * x for x in q) for q in trial]):
                blocks = trial
            else:
                b += 1
    return nc(p.n, blocks)


# ---------------------------------------------------------------------------
# lattice structure


def refines(p: NCPartition, q: NCPartition) -> bool:
    """p <= q: every p-block lies inside a q-block."""
    if p.n != q.n:
        raise ValueError("ground sets differ")
    owner = {}
    for j, b in enumerate(q.blocks):
        for x in b:
            owner[x] = j
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def mobius_nc(p: NCPartition, q: NCPartition) -> int:
    """Mobius function of NC(n) in closed form over Kreweras classes.

    mu(p, q) with p <= q factorizes over the blocks B of q, and
    mu(p|B, 1_B) is the product over the classes C of the Kreweras
    complement of p|B of (-1)^(|C|-1) Cat(|C|-1) (Nica-Speicher,
    Lectures on the Combinatorics of Free Probability, Lect. 10).
    """
    if not refines(p, q):
        raise ValueError("mobius_nc needs p <= q")
    out = 1
    for b in q.blocks:
        relabel = {x: i + 1 for i, x in enumerate(b)}
        sub = [tuple(relabel[x] for x in pb) for pb in p.blocks if pb[0] in relabel]
        for c in _kreweras_cycles(len(b), sub):
            out *= (-1) ** (len(c) - 1) * catalan(len(c) - 1)
    return out


# ---------------------------------------------------------------------------
# doubling bijection and starry paths


def double_bijection(p: NCPartition) -> NCPartition:
    """The pairing S on {1..2n} doubling the partition p of {1..n}.

    Identifying (c, 1) with 2c-1 and (c, 2) with 2c, each block
    {c_1 < ... < c_t} contributes the pairs {(c_j, 2), (c_{j+1}, 1)}
    cyclically.  This is a bijection from NC(n) onto TL(2n).
    """
    pairs = []
    for b in p.blocks:
        t = len(b)
        for j in range(t):
            cj, cnext = b[j], b[(j + 1) % t]
            pairs.append(tuple(sorted((2 * cj, 2 * cnext - 1))))
    return nc(2 * p.n, pairs)


def is_starry(graph: Graph, path: Path) -> bool:
    """Even closed walk whose edges pair off as reversals around one hub.

    A path of length 2n is starry when edge 2i equals the reversal of
    edge 2i+1 for every i (indices cyclic, so edge 2n pairs with edge 1).
    Starry paths are loops and all their odd vertices coincide.
    """
    if path.length % 2:
        raise ValueError("starry test needs an even-length path")
    two_n = path.length
    if two_n == 0:
        return True
    for i in range(1, two_n // 2 + 1):
        e_even = path.edges[2 * i - 1]           # edge 2i, 0-based
        e_next = path.edges[(2 * i) % two_n]     # edge 2i+1 cyclically
        if e_even != graph.erev[e_next]:
            return False
    return True


# ---------------------------------------------------------------------------
# structural identities of Kreweras classes of pairings


def kreweras_class_structure(t: NCPartition):
    """Check the Kreweras-class lemma for a pairing t of {1..2n}.

    Every class {a_1 < ... < a_k} of the complement must be of constant
    parity with {a_i + 1, a_{i+1}} a pair of t (successor mod 2n, index
    cyclic).  Returns (ok, witness).
    """
    if not t.is_pairing():
        raise ValueError("need a pairing")
    two_n = t.n
    pairs = {frozenset(b) for b in t.blocks}
    comp = kreweras(t)
    for c in comp.blocks:
        if len({a % 2 for a in c}) > 1:
            return False, f"class {c} mixes parities"
        k = len(c)
        for i in range(k):
            a_i, a_next = c[i], c[(i + 1) % k]
            succ = a_i % two_n + 1
            if frozenset((succ, a_next)) not in pairs:
                return False, f"{{ {succ}, {a_next} }} not in pairing (class {c})"
    return True, ""


def epsilon_identity_check(t: NCPartition):
    """Check the sign identity over Kreweras classes of a pairing.

    With eps(i) = +1 when i opens its pair and -1 when it closes, the
    sum over a complement class C is 2 - |C|, except -|C| for the class
    containing 2n.  Returns (ok, witness).
    """
    if not t.is_pairing():
        raise ValueError("need a pairing")
    two_n = t.n
    eps = {}
    for a, b in t.blocks:
        eps[a], eps[b] = 1, -1
    for c in kreweras(t).blocks:
        total = sum(eps[x] for x in c)
        expected = -len(c) if two_n in c else 2 - len(c)
        if total != expected:
            return False, f"class {c}: sum {total} != {expected}"
    return True, ""
