"""The graded path *-probability space of a graph.

Elements are finite linear combinations of paths (mixed degrees are
allowed so the filtered picture can reuse the container).  The product
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

from .graphs import Graph, GraphError, Path, vertex_path
from . import noncross


class GradedElement:
    """Finite scalar combination of paths of a fixed graph.

    Zero coefficients are pruned.  Supports +, -, scalar *, the graded
    concatenation product via :func:`bullet_mul` and the involution via
    :func:`star`.
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Graph, terms=None):
        self.graph = graph
        self.terms: dict[Path, float] = {p: c for p, c in (terms or {}).items()
                                         if c != 0}

    def _prune(self):
        for p in [p for p, c in self.terms.items() if c == 0]:
            del self.terms[p]

    # -- constructors ---------------------------------------------------

    @classmethod
    def basis(cls, graph: Graph, path: Path, coeff=1.0) -> "GradedElement":
        x = cls(graph)
        if coeff != 0:
            x.terms[path] = coeff
        return x

    # -- ring-ish operations ---------------------------------------------

    def copy(self) -> "GradedElement":
        out = GradedElement(self.graph)
        out.terms = dict(self.terms)
        return out

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._same_graph(other)
        out = self.copy()
        for p, c in other.terms.items():
            out.terms[p] = out.terms.get(p, 0.0) + c
        out._prune()
        return out

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-1.0) * other

    def __neg__(self) -> "GradedElement":
        return (-1.0) * self

    def __rmul__(self, scalar) -> "GradedElement":
        out = GradedElement(self.graph)
        if scalar != 0:
            out.terms = {p: scalar * c for p, c in self.terms.items()}
        return out

    def _same_graph(self, other: "GradedElement"):
        if other.graph is not self.graph:
            raise GraphError("elements live on different graphs")

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def coeff(self, path: Path) -> float:
        return self.terms.get(path, 0.0)

    def norm_inf_diff(self, other: "GradedElement") -> float:
        self._same_graph(other)
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.coeff(p) - other.coeff(p)) for p in keys), default=0.0)

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
    x._same_graph(y)
    out = GradedElement(x.graph)
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            pq = p.concat(q)
            if pq is not None:
                out.terms[pq] = out.terms.get(pq, 0.0) + a * b
    out._prune()
    return out


def star(x: GradedElement) -> GradedElement:
    """The involution: conjugate coefficients on reversed paths."""
    g = x.graph
    out = GradedElement(g)
    for p, c in x.terms.items():
        out.terms[p.reversed_in(g)] = c.conjugate() if isinstance(c, complex) else c
    return out


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


def _face_sum(graph: Graph, path: Path) -> float:
    """Sum over reversal-matched pairings of the product of face weights mu^2.

    With edges e_1..e_n and v_i the vertex after edge i, f[i][j] sums the
    pairings of e_{i+1}..e_j: F(i,i) = 1, F(i,j) = 0 when v_i != v_j, and
    otherwise e_{i+1} pairs with some e_k = rev(e_{i+1}), closing the face
    at v_{i+1}:
    F(i,j) = mu^2(v_{i+1}) * sum_k F(i+1,k-1) * F(k,j), k = i+2, i+4, ..., j.
    """
    n, v, e = path.length, path.vertices, path.edges
    mu2, erev = graph.mu2, graph.erev
    f = [[0.0] * (n + 1) for _ in range(n + 1)]
    f[n][n] = 1.0
    for i in range(n - 1, -1, -1):
        f[i][i] = 1.0
        back = erev[e[i]]
        partners = [k for k in range(i + 2, n + 1, 2) if e[k - 1] == back]
        if not partners:
            continue
        inner, outer, face = f[i + 1], f[i], mu2[v[i + 1]]
        for j in range(partners[0], n + 1, 2):
            if v[j] == v[i]:
                s = 0.0
                for k in partners:
                    if k > j:
                        break
                    s += inner[k - 1] * f[k][j]
                outer[j] = face * s
    return f[0][n]


def tau_path(graph: Graph, path: Path) -> float:
    """Trace of one path: mu^2(v_0) * F(0,n) / prod_{i=1..n} mu(v_i).

    Open and odd-length paths give 0.
    """
    if path.length == 0:
        return graph.mu2[path.start]
    if path.length % 2 or path.start != path.finish:
        return 0.0
    key = ("tau", path)
    val = graph._cache.get(key)
    if val is None:
        denom = math.prod(graph.mu(x) for x in path.vertices[1:])
        val = graph.mu2[path.start] * _face_sum(graph, path) / denom
        graph._cache[key] = val
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
