"""Matrix-unit towers of the path model on a pointed graph.

Level n is spanned by pairs of length-n paths from the base point with
a common finish; pairs multiply as matrix units block-by-block over the
finish vertex.  The module provides the Markov trace, the inclusion and
trace-preserving conditional expectation, the Jones projections, the
closed-pairing elements, the graded product on loop spaces with both a
closed form and an inclusion/pairing/multiplication route, the loop
isomorphisms onto the towers, and the annular action computed through
conditional expectations of Jones-projection products.

Everything here assumes the Perron-Frobenius weighting of the pointed
graph (the trace identities need it); nothing consults any connection
data beyond the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, Path, delta_v, enumerate_paths
from .gralg import GradedElement, SparseElement
from . import epitl, noncross


@dataclass(frozen=True)
class PathPair:
    """Basis element of level n: two paths from the base with equal finish."""

    plus: Path
    minus: Path

    def __post_init__(self):
        if self.plus.length != self.minus.length:
            raise GraphError("pair paths must have equal length")
        if self.plus.start != self.minus.start:
            raise GraphError("pair paths must share the base point")
        if self.plus.finish != self.minus.finish:
            raise GraphError("pair paths must share the finish")

    @property
    def level(self) -> int:
        return self.plus.length


class TowerElement(SparseElement):
    """Finite combination of level-n path pairs."""

    __slots__ = ("level",)

    def __init__(self, graph: Graph, level: int, terms=None):
        super().__init__(graph, terms)
        self.level = level

    def _build(self, terms: dict) -> "TowerElement":
        return TowerElement(self.graph, self.level, terms)

    def _check(self, other: "TowerElement"):
        super()._check(other)
        if other.level != self.level:
            raise GraphError(f"levels {self.level} and {other.level} differ")

    @classmethod
    def basis(cls, graph: Graph, pair: PathPair, coeff=1.0) -> "TowerElement":
        return cls(graph, pair.level, {pair: coeff})

    def __repr__(self):
        return f"TowerElement(level={self.level}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# base structure


def _star(graph: Graph) -> int:
    if graph.star is None:
        raise GraphError("graph has no base point")
    return graph.star


def pair_basis(graph: Graph, n: int) -> list[PathPair]:
    by_finish: dict[int, list[Path]] = {}
    for p in enumerate_paths(graph, _star(graph), n, None):
        by_finish.setdefault(p.finish, []).append(p)
    return [PathPair(p, q) for f in sorted(by_finish)
            for p in by_finish[f] for q in by_finish[f]]


def identity_element(graph: Graph, n: int) -> TowerElement:
    return TowerElement(graph, n,
                        {PathPair(p, p): 1.0
                         for p in enumerate_paths(graph, _star(graph), n, None)})


def mult(x: TowerElement, y: TowerElement) -> TowerElement:
    """Matrix-unit product: (a,b)(c,d) = [b = c] (a,d)."""
    x._check(y)
    by_plus: dict[Path, list[tuple[PathPair, float]]] = {}
    for k, c in y.terms.items():
        by_plus.setdefault(k.plus, []).append((k, c))
    out: dict[PathPair, float] = {}
    for k, c in x.terms.items():
        for k2, c2 in by_plus.get(k.minus, ()):
            pair = PathPair(k.plus, k2.minus)
            out[pair] = out.get(pair, 0.0) + c * c2
    return x._build(out)


def star_t(x: TowerElement) -> TowerElement:
    return x._build({PathPair(k.minus, k.plus): c.conjugate() if isinstance(c, complex) else c
                     for k, c in x.terms.items()})


def trace_t(x: TowerElement) -> float:
    """Normalized Markov trace: delta^-n mu2(finish)/mu2(base) per diagonal pair."""
    g = x.graph
    base = _star(g)
    delta = delta_v(g, base)
    out = 0.0
    for k, c in x.terms.items():
        if k.plus == k.minus:
            out += c * delta ** (-x.level) * g.mu2[k.plus.finish] / g.mu2[base]
    return out


# ---------------------------------------------------------------------------
# inclusion, conditional expectation, Jones projections


def include(x: TowerElement) -> TowerElement:
    """Unital inclusion: extend both legs by every length-1 continuation."""
    g = x.graph
    out: dict[PathPair, float] = {}
    for k, c in x.terms.items():
        for e in g.out_edges(k.plus.finish):
            w = g.efinish[e]
            plus = Path(k.plus.vertices + (w,), k.plus.edges + (e,))
            minus = Path(k.minus.vertices + (w,), k.minus.edges + (e,))
            pair = PathPair(plus, minus)
            out[pair] = out.get(pair, 0.0) + c
    return TowerElement(g, x.level + 1, out)


def cond_exp(x: TowerElement) -> TowerElement:
    """Trace-preserving conditional expectation one level down."""
    g = x.graph
    if x.level == 0:
        raise GraphError("cannot project below level 0")
    delta = delta_v(g, _star(g))
    out: dict[PathPair, float] = {}
    for k, c in x.terms.items():
        if k.plus.edges[-1] != k.minus.edges[-1]:
            continue
        w = k.plus.finish
        prev = k.plus.vertices[-2]
        coeff = c * g.mu2[w] / (delta * g.mu2[prev])
        pair = PathPair(k.plus.segment(0, x.level - 1),
                        k.minus.segment(0, x.level - 1))
        out[pair] = out.get(pair, 0.0) + coeff
    return TowerElement(g, x.level - 1, out)


def jones_projection(graph: Graph, n: int) -> TowerElement:
    """The level-n Jones projection (n >= 2).

    Pairs whose last two edges double back, weighted by
    mu(v+_{n-1}) mu(v-_{n-1}) / (delta mu2(v_n)).
    """
    if n < 2:
        raise GraphError("Jones projections start at level 2")
    g = graph
    delta = delta_v(g, _star(g))
    if delta <= 1:
        raise GraphError("Jones projections need modulus > 1")
    out: dict[PathPair, float] = {}
    for pair in pair_basis(g, n):
        p, m = pair.plus, pair.minus
        if p.segment(0, n - 2) != m.segment(0, n - 2):
            continue
        if p.edges[-2] != g.erev[p.edges[-1]] or m.edges[-2] != g.erev[m.edges[-1]]:
            continue
        out[pair] = (g.mu(p.vertices[n - 1]) * g.mu(m.vertices[n - 1])
                     / (delta * g.mu2[p.finish]))
    return TowerElement(g, n, out)


def _jones_tower(graph: Graph, level: int, t: int) -> TowerElement:
    """e_t included up to the given level."""
    out = jones_projection(graph, t)
    for _ in range(level - t):
        out = include(out)
    return out


# ---------------------------------------------------------------------------
# closed pairings acting at a level


def ztl(graph: Graph, t: noncross.NCPartition) -> TowerElement:
    """Element of level n from a pairing of 2n points.

    Each based loop of length 2n, read as its pair by `loop_to_pair`,
    carries the closed capping value `epitl.closed_cap_value(t, loop)`
    times mu(base)/mu(v_n): zero unless every pair of t reverses its
    edges, else the mu-ratios of the pairs left and right of the
    midpoint.
    """
    if not t.is_pairing():
        raise GraphError("need a pairing")
    g = graph
    base = _star(g)
    n = t.n // 2
    out: dict[PathPair, float] = {}
    for loop in enumerate_paths(g, base, 2 * n, base):
        value = epitl.closed_cap_value(g, t, loop)
        if value:
            out[loop_to_pair(g, loop)] = value * g.mu(base) / g.mu(loop.vertices[n])
    return TowerElement(g, n, out)


# ---------------------------------------------------------------------------
# loops versus pairs


def loop_to_pair(graph: Graph, loop: Path) -> PathPair:
    """Identify a based loop of length 2n with the level-n pair."""
    if loop.length % 2 or loop.start != _star(graph) or loop.finish != loop.start:
        raise GraphError("need an even loop at the base point")
    n = loop.length // 2
    return PathPair(loop.segment(n, 2 * n).reversed_in(graph), loop.segment(0, n))


def pair_to_loop(graph: Graph, pair: PathPair) -> Path:
    return pair.minus.concat(pair.plus.reversed_in(graph))


# ---------------------------------------------------------------------------
# graded products on the loop picture


def _loop_product(x: TowerElement, y: TowerElement, shift: int) -> TowerElement:
    """Concatenate the loops of x (level m) and y (level n), first
    dropping the last `shift` edges of each x loop against the first
    `shift` edges of each y loop, which must reverse them.

    The result, at level m+n-shift, is weighted by
    mu(mid x) mu(mid y) / (mu(v_(m+n-shift)) mu(v_shift of y)).
    """
    g = x.graph
    if x.graph is not y.graph:
        raise GraphError("different graphs")
    m, n = x.level, y.level
    out: dict[PathPair, float] = {}
    for kx, cx in x.terms.items():
        lx = pair_to_loop(g, kx)
        for ky, cy in y.terms.items():
            ly = pair_to_loop(g, ky)
            if shift and lx.edges[-1] != g.erev[ly.edges[0]]:
                continue
            loop = lx.segment(0, 2 * m - shift).concat(ly.segment(shift, 2 * n))
            coeff = (cx * cy * g.mu(lx.vertices[m]) * g.mu(ly.vertices[n])
                     / (g.mu(loop.vertices[m + n - shift]) * g.mu(ly.vertices[shift])))
            pair = loop_to_pair(g, loop)
            out[pair] = out.get(pair, 0.0) + coeff
    return TowerElement(g, m + n - shift, out)


def gr0_mul(x: TowerElement, y: TowerElement) -> TowerElement:
    """Graded loop product in closed form: the loops concatenate whole."""
    return _loop_product(x, y, 0)


def _gr0_middle_pairing(m: int, n: int) -> noncross.NCPartition:
    """The pairing of 2(m+n) points sitting between the two inclusions."""
    pairs = []
    for t in range(1, m - n + 1):                      # through strands
        pairs.append((t, 2 * m - t + 1))
    for i in range(1, n + 1):                          # minus-leg doubling
        pairs.append((m - n + i, m + n + 1 - i))
    for i in range(1, n + 1):                          # plus-leg doubling
        big_i, big_j = 2 * n + 1 - i, i                # reflected coordinates
        pairs.append(tuple(sorted((2 * (m + n) + 1 - big_i,
                                   2 * (m + n) + 1 - big_j))))
    return noncross.nc(2 * (m + n), pairs)


def gr0_mul_tangle(x: TowerElement, y: TowerElement) -> TowerElement:
    """Oracle route for the loop product: include, insert the middle
    pairing, and multiply matrix units.  Requires level(x) >= level(y).

    Note the order: the second factor's inclusion multiplies from the
    left of the pairing element and the first factor's from the right.
    """
    g = x.graph
    m, n = x.level, y.level
    if m < n:
        raise GraphError("tangle route needs level(x) >= level(y)")
    xe = x
    for _ in range(n):
        xe = include(xe)
    ye = y
    for _ in range(m):
        ye = include(ye)
    middle = ztl(g, _gr0_middle_pairing(m, n))
    return mult(mult(ye, middle), xe)


def theta(graph: Graph, x: GradedElement) -> TowerElement:
    """Loop-space isomorphism onto the tower level.

    A length-2n based loop maps to mu(base)/mu(mid) times its pair.
    """
    g = graph
    degs = x.degrees() or [0]
    if len(degs) != 1:
        raise GraphError("theta needs a homogeneous element")
    n = degs[0] // 2
    out: dict[PathPair, float] = {}
    for p, c in x.terms.items():
        pair = loop_to_pair(g, p)
        out[pair] = out.get(pair, 0.0) + c * g.mu(p.vertices[0]) / g.mu(p.vertices[n])
    return TowerElement(g, n, out)


def _picture_sum(x: TowerElement, pairings) -> float:
    """delta^n times the summed Markov traces of each pairing element,
    reflected so that it closes the diagram, multiplied into x."""
    g = x.graph
    n = x.level
    total = 0.0
    for t in pairings:
        reflected = noncross.nc(
            2 * n, [tuple(sorted((2 * n + 1 - a, 2 * n + 1 - b)))
                    for a, b in t.blocks])
        total += trace_t(mult(ztl(g, reflected), x))
    return delta_v(g, _star(g)) ** n * total


def gr0_trace(x: TowerElement) -> float:
    """The loop-picture trace on a tower level.

    The picture sum over all pairings of the 2n boundary points; this is
    the trace the loop isomorphism carries the corner trace to, and it
    is computed entirely from matrix units.
    """
    return _picture_sum(x, noncross.enumerate_tl(2 * x.level))


# ---------------------------------------------------------------------------
# annular action through conditional expectations


def annular_cap(graph: Graph, n: int, i: int, x: TowerElement) -> TowerElement:
    """Action of the single-cap annular diagram at slot i on level n.

    Middle slot: delta times one conditional expectation.  Left slots
    (i < n): post-multiply by the included Jones chain E_{i+1}..E_n and
    project once, times delta.  Right slots run through the adjoint of
    the mirrored left case.
    """
    if x.level != n:
        raise GraphError("level mismatch")
    if not 1 <= i < 2 * n:
        raise GraphError("slot out of range")
    g = x.graph
    delta = delta_v(g, _star(g))
    if i == n:
        return delta * cond_exp(x)
    if i > n:
        return star_t(annular_cap(g, n, 2 * n - i, star_t(x)))
    for t in range(i + 1, n + 1):
        x = mult(x, _jones_tower(g, n, t))
    return delta ** (n - i + 1) * cond_exp(x)


# ---------------------------------------------------------------------------
# the shifted graded product and its loop picture


def q_projection(graph: Graph, v) -> tuple[TowerElement, Path]:
    """Distinguished minimal projection at a depth-1 vertex.

    Uses the lexicographically least length-1 path from the base to v;
    returns (the level-1 pair, the connecting path).
    """
    g = graph
    vi = g.index(v)
    nus = [p for p in enumerate_paths(g, _star(g), 1, vi)]
    if not nus:
        raise GraphError(f"{v!r} is not adjacent to the base point")
    nu = min(nus, key=lambda p: p.edges)
    return TowerElement.basis(g, PathPair(nu, nu)), nu


def gr1_mul(x: TowerElement, y: TowerElement) -> TowerElement:
    """Shifted graded product: levels m and n multiply to level m+n-1.

    In loop coordinates the last edge of the first loop must reverse the
    first edge of the second, and the concatenation drops both.
    """
    if x.level < 1 or y.level < 1:
        raise GraphError("shifted product needs positive levels")
    return _loop_product(x, y, 1)


def gr1_trace_raw(x: TowerElement) -> float:
    """Unnormalized shifted-picture trace.

    The picture sum over the pairings of 2k points whose first and last
    points are matched (the reserved strand closing around).  Normalize
    by the value on the distinguished projection to get the corner trace.
    """
    k = x.level
    if k < 1:
        raise GraphError("shifted picture starts at level 1")
    return _picture_sum(x, [t for t in noncross.enumerate_tl(2 * k)
                            if (1, 2 * k) in t.blocks])


def theta1(graph: Graph, v, x: GradedElement) -> TowerElement:
    """Loop-space isomorphism onto the corner of the shifted picture.

    A length-2n loop at the depth-1 vertex v conjugates by the
    distinguished connecting path and lands in level n+1, scaled by
    mu(v)/mu(midpoint).
    """
    g = graph
    _, nu = q_projection(g, v)
    degs = x.degrees() or [0]
    if len(degs) != 1:
        raise GraphError("theta1 needs a homogeneous element")
    n = degs[0] // 2
    nurev = nu.reversed_in(g)
    out: dict[PathPair, float] = {}
    for p, c in x.terms.items():
        if p.start != g.index(v) or p.finish != p.start:
            raise GraphError("theta1 needs loops at the chosen vertex")
        pair = loop_to_pair(g, nu.concat(p).concat(nurev))
        out[pair] = out.get(pair, 0.0) + c * g.mu(p.vertices[0]) / g.mu(p.vertices[n])
    return TowerElement(g, n + 1, out)
