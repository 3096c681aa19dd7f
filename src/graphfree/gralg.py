"""The graded path *-probability space of a graph.

Elements are finite linear combinations of paths (mixed degrees are
allowed so the filtered picture can reuse the container).  Their
arithmetic lives in :class:`SparseElement`, which the path-pair
combinations of the towers share.  The product
is concatenation, the involution reverses paths, and the trace sums
Temperley-Lieb pairings weighted by Kreweras-complement mu-factors.

Each Kreweras class of a pairing that matches edges as mutual reversals
carries a single vertex, so a pairing weighs
prod_i mu(v_i)^-1 * prod_classes mu^2(v_class), with v_i the vertex
after edge i.  Splitting a pairing at the partner of its first edge
(first-return decomposition) turns the Catalan-sized sum into an
O(n^3) interval recursion, so :func:`tau` has no length cap.
:func:`tau_pairing` keeps the single-diagram term as the oracle.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from .graphs import Graph, GraphError, Path, vertex_path
from . import noncross


def max_abs_diff(a: dict, b: dict) -> float:
    """max |a[k] - b[k]| over both key sets, a missing key reading 0."""
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()),
               default=0.0)


class SparseElement:
    """Finite scalar combination of basis keys over a fixed graph.

    Zero coefficients are dropped on construction, and every operation
    builds its result once.  Subclasses say how to build a result like
    themselves (:meth:`_build`) and which operands combine with them
    (:meth:`_check`).
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Graph, terms=None):
        self.graph = graph
        terms = terms or {}
        # dict() copies the stored key hashes; the comprehension rehashes
        # every key, so it runs only when there is a zero to drop
        self.terms = ({k: c for k, c in terms.items() if c != 0} if 0 in terms.values()
                      else dict(terms))

    def _build(self, terms: dict):
        return type(self)(self.graph, terms)

    def _check(self, other):
        if other.graph is not self.graph:
            raise GraphError("elements live on different graphs")

    @classmethod
    def basis(cls, graph: Graph, key, coeff=1.0):
        return cls(graph, {key: coeff})

    def copy(self):
        return self._build(self.terms)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return self._build(terms)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        return self._build({k: scalar * c for k, c in self.terms.items()})

    def coeff(self, key) -> float:
        return self.terms.get(key, 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def norm_inf_diff(self, other) -> float:
        # a zero element is zero on every level, so only two nonzero
        # elements have to combine
        if self.terms and other.terms:
            self._check(other)
        return max_abs_diff(self.terms, other.terms)


class GradedElement(SparseElement):
    """Finite scalar combination of paths of a fixed graph.

    Mixed degrees are allowed.  The graded concatenation product is
    :func:`bullet_mul` and the involution :func:`star`.
    """

    __slots__ = ()

    def degrees(self) -> list[int]:
        return sorted({p.length for p in self.terms})

    def component(self, n: int) -> "GradedElement":
        return GradedElement(self.graph,
                             {p: c for p, c in self.terms.items() if p.length == n})

    def degree(self) -> int:
        """Degree of a homogeneous element."""
        degs = self.degrees()
        if len(degs) != 1:
            raise GraphError(f"element not homogeneous (degrees {degs})")
        return degs[0]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].vertices, t[0].edges)):
            names = "->".join(self.graph.ids[v] for v in p.vertices)
            bits.append(f"{c:+.6g}*[{names}]")
        return " ".join(bits)


# ---------------------------------------------------------------------------
# structure maps


def unit(graph: Graph) -> GradedElement:
    """The multiplicative identity: the sum of all length-0 paths."""
    return GradedElement(graph, {vertex_path(v): 1.0 for v in range(graph.n_vertices)})


def e_vertex(graph: Graph, v) -> GradedElement:
    return GradedElement.basis(graph, vertex_path(graph.index(v)))


def e_parity(graph: Graph, parity: int) -> GradedElement:
    return GradedElement(graph, {vertex_path(v): 1.0
                                 for v in graph.vertices_of_parity(parity)})


def bullet_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """Concatenation product; terms with mismatched endpoints drop out."""
    x._check(y)
    out: dict[Path, float] = {}
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            pq = p.concat(q)
            if pq is not None:
                out[pq] = out.get(pq, 0.0) + a * b
    return GradedElement(x.graph, out)


def star(x: GradedElement) -> GradedElement:
    """The involution: conjugate coefficients on reversed paths."""
    g = x.graph
    return GradedElement(g, {p.reversed_in(g): c.conjugate() if isinstance(c, complex) else c
                             for p, c in x.terms.items()})


# ---------------------------------------------------------------------------
# the trace


def tau_pairing(graph: Graph, t: noncross.NCPartition, path: Path) -> float:
    """Single Temperley-Lieb term of the trace.

    The pairing matches edge slots as mutual reversals; each class of
    its Kreweras complement contributes mu(vertex)^(2-|class|), where
    position i of the complement carries the vertex after edge i.
    """
    n = path.length
    if t.n != n:
        raise GraphError("pairing size does not match path length")
    if n == 0:
        return graph.mu2[path.start]  # the empty pairing has one face, at v_0
    for a, b in t.blocks:
        if path.edges[a - 1] != graph.erev[path.edges[b - 1]]:
            return 0.0
    out = 1.0
    for c in noncross.kreweras(t).blocks:
        out *= graph.mu(path.vertices[c[0]]) ** (2 - len(c))
    return out


def _face_rows(graph: Graph, path: Path) -> list[dict[int, float]]:
    """Rows 1..n of the face-sum table F, each the dict {j: F(i,j)} of its nonzeros.

    With edges e_1..e_n and v_i the vertex after edge i, F(i,j) sums the
    pairings of e_{i+1}..e_j by their products of face weights mu^2:
    F(i,i) = 1, and e_{i+1} pairs with some e_k = rev(e_{i+1}), closing the
    face at v_{i+1}: F(i,j) = mu^2(v_{i+1}) * sum_k F(i+1,k-1) * F(k,j).
    Row i is filled from the partners k with F(i+1,k-1) != 0 only, read off
    row i+1, so the work follows the pairable intervals, not (n+1)^2 cells.
    Every weight is positive, so no entry cancels.  Row 0 is left empty:
    the trace reads only its corner (see :func:`_face_sum`).
    """
    n, v, e = path.length, path.vertices, path.edges
    mu2, erev = graph.mu2, graph.erev
    rows: list[dict[int, float]] = [{}] * (n + 1)
    for i in range(n, 0, -1):
        row = {i: 1.0}
        if i < n:
            back, face = erev[e[i]], mu2[v[i + 1]]
            for m, w in rows[i + 1].items():  # k = m + 1
                if m < n and e[m] == back:
                    w *= face
                    for j, c in rows[m + 1].items():
                        row[j] = row.get(j, 0.0) + w * c
        rows[i] = row
    return rows


def _face_sum(graph: Graph, path: Path) -> float:
    """F(0,n) = mu^2(v_1) * sum_k F(1,k-1) * F(k,n), from rows 1..n alone."""
    n, e = path.length, path.edges
    rows, back = _face_rows(graph, path), graph.erev[e[0]]
    return graph.mu2[path.vertices[1]] * sum(
        w * rows[m + 1].get(n, 0.0) for m, w in rows[1].items() if m < n and e[m] == back)


# The trace memo holds at most this many paths per graph; past that it
# forgets its oldest.  A verify --suite all pass at degree 6 traces 943
# distinct paths, and trace --all-loops reads each loop once.
TAU_MEMO_MAX = 4096


def tau_path(graph: Graph, path: Path) -> float:
    """Trace of one path: mu^2(v_0) * F(0,n) / prod_{i=1..n} mu(v_i).

    Open and odd-length paths give 0.
    """
    if path.length == 0:
        return graph.mu2[path.start]
    if path.length % 2 or path.start != path.finish:
        return 0.0
    memo = graph._cache.get("tau")
    if memo is None:
        memo = graph._cache["tau"] = OrderedDict()
    val = memo.get(path)
    if val is None:
        denom = math.prod(map(graph.mu, path.vertices[1:]))
        val = graph.mu2[path.start] * _face_sum(graph, path) / denom
        if len(memo) >= TAU_MEMO_MAX:
            memo.popitem(last=False)
        memo[path] = val
    return val


def tau(x: GradedElement) -> float:
    """The normalized trace: TL-pairing sum on each path, linearly extended.

    Vanishes in odd degrees; tau(unit) = 1.
    """
    return sum(c * tau_path(x.graph, p) for p, c in x.terms.items())


# ---------------------------------------------------------------------------
# corners


def _corner_vertices(graph: Graph, side) -> set[int]:
    if side == "even":
        return set(graph.vertices_of_parity(0))
    if side == "odd":
        return set(graph.vertices_of_parity(1))
    return {graph.index(side)}


def corner(x: GradedElement, side) -> GradedElement:
    """Compression e.x.e onto paths starting and ending in the given side.

    ``side`` is a vertex id, or "even"/"odd" for the parity corners.
    """
    keep = _corner_vertices(x.graph, side)
    return GradedElement(x.graph, {p: c for p, c in x.terms.items()
                                   if p.start in keep and p.finish in keep})


def corner_trace(x: GradedElement, side) -> float:
    """Trace of the corner, rescaled to be 1 on the corner unit."""
    keep = _corner_vertices(x.graph, side)
    mass = sum(x.graph.mu2[v] for v in keep)
    return tau(corner(x, side)) / mass
