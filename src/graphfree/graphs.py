"""Finite weighted bipartite multigraphs and their path spaces.

A graph here is a finite vertex set split into even and odd vertices,
a set of directed edges closed under a fixed-point-free reversal
involution (each undirected edge contributes a reversal pair), and a
positive vertex weighting ``mu2`` with total mass 1.  Paths alternate
parities; the length-n paths form the basis of the degree-n piece of
the path algebras built on top of this module.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter

import numpy as np

EVEN = 0
ODD = 1

# How far the vertex weights of a graph may sum from 1.
DEFAULT_TOL = 1e-9


class GraphError(ValueError):
    """Malformed graph data or an invalid graph query."""


def _parity_code(p) -> int:
    if p in (EVEN, ODD) and not isinstance(p, bool):
        return p
    if isinstance(p, str):
        s = p.strip().lower()
        if s == "even":
            return EVEN
        if s == "odd":
            return ODD
    raise GraphError(f"unknown parity {p!r}")


class Path(tuple):
    """A path: vertex indices v_0..v_n and the edge ids joining them.

    ``vertices`` always has one more entry than ``edges``; a length-0
    path is a bare vertex.  A path is the immutable pair (vertices,
    edges), so it hashes and compares as a tuple; the operations that
    need weights or reversals take the graph as an argument.
    """

    __slots__ = ()

    def __new__(cls, vertices: tuple[int, ...], edges: tuple[int, ...]):
        if len(vertices) != len(edges) + 1:
            raise GraphError("path vertex/edge count mismatch")
        return tuple.__new__(cls, (vertices, edges))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Path(vertices={self[0]}, edges={self[1]})"

    vertices = property(itemgetter(0))
    edges = property(itemgetter(1))

    @property
    def length(self) -> int:
        return len(self[1])

    @property
    def start(self) -> int:
        return self[0][0]

    @property
    def finish(self) -> int:
        return self[0][-1]

    def reversed_in(self, graph: "Graph") -> "Path":
        return Path(tuple(reversed(self.vertices)),
                    tuple(graph.erev[e] for e in reversed(self.edges)))

    def concat(self, other: "Path") -> "Path | None":
        """Concatenation, or None when finish and start do not match."""
        if self.finish != other.start:
            return None
        return Path(self.vertices + other.vertices[1:], self.edges + other.edges)

    def segment(self, i: int, j: int) -> "Path":
        """Subpath between vertex indices i and j (inclusive)."""
        if not 0 <= i <= j <= self.length:
            raise GraphError(f"bad segment [{i},{j}] of length-{self.length} path")
        return Path(self.vertices[i:j + 1], self.edges[i:j])


def vertex_path(v: int) -> Path:
    return Path((v,), ())


class Graph:
    """Finite weighted bipartite multigraph with edge-reversal involution.

    Immutable after construction.  Directed edges are stored as parallel
    tuples ``estart``/``efinish``/``erev``; undirected input edges are
    canonicalized into reversal pairs with the even-to-odd direction
    first, so edge ids (and hence path enumeration order) are stable.
    """

    __slots__ = ("ids", "parity", "mu2", "star",
                 "estart", "efinish", "erev",
                 "_index", "_out", "_mu", "__weakref__")

    def __init__(self, ids, parity, mu2, estart, efinish, erev, star=None):
        self.ids = tuple(ids)
        self.parity = tuple(parity)
        self.mu2 = tuple(float(x) for x in mu2)
        self.estart = tuple(estart)
        self.efinish = tuple(efinish)
        self.erev = tuple(erev)
        self.star = star
        self._index = {vid: i for i, vid in enumerate(self.ids)}
        self._validate()
        self._mu = tuple(math.sqrt(w) for w in self.mu2)
        out = [[] for _ in self.ids]
        for e, u in enumerate(self.estart):
            out[u].append(e)
        self._out = tuple(tuple(es) for es in out)

    # -- validation -----------------------------------------------------

    def _validate(self):
        if len(self._index) != len(self.ids):
            raise GraphError("duplicate vertex id")
        if len(self.parity) != len(self.ids) or len(self.mu2) != len(self.ids):
            raise GraphError("vertex data length mismatch")
        for p in self.parity:
            if p not in (EVEN, ODD):
                raise GraphError("parity must be even or odd")
        for w in self.mu2:
            if not w > 0:
                raise GraphError("vertex weights must be positive")
        if abs(sum(self.mu2) - 1.0) > DEFAULT_TOL:
            raise GraphError(f"vertex weights must sum to 1, got {sum(self.mu2)}")
        ne = len(self.estart)
        if len(self.efinish) != ne or len(self.erev) != ne:
            raise GraphError("edge data length mismatch")
        for e in range(ne):
            u, x = self.estart[e], self.efinish[e]
            if self.parity[u] == self.parity[x]:
                raise GraphError(
                    f"edge {self.ids[u]}--{self.ids[x]} joins vertices of equal parity")
            r = self.erev[e]
            if r == e:
                raise GraphError("reversal involution has a fixed point")
            if self.erev[r] != e:
                raise GraphError("reversal is not an involution")
            if self.estart[r] != x or self.efinish[r] != u:
                raise GraphError("reversal does not exchange start and finish")
        if self.star is not None:
            if not 0 <= self.star < len(self.ids):
                raise GraphError("star vertex out of range")
            if self.parity[self.star] != EVEN:
                raise GraphError("star vertex must be even")

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.ids)

    @property
    def n_directed_edges(self) -> int:
        return len(self.estart)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (reversal pairs)."""
        return len(self.estart) // 2

    def index(self, v) -> int:
        """Vertex index from id (ints pass through)."""
        if isinstance(v, int) and not isinstance(v, bool):
            if 0 <= v < len(self.ids):
                return v
            raise GraphError(f"vertex index {v} out of range")
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def mu(self, v: int) -> float:
        return self._mu[v]

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def vertices_of_parity(self, parity: int) -> tuple[int, ...]:
        return tuple(v for v in range(len(self.ids)) if self.parity[v] == parity)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((len(self.ids), len(self.ids)))
        for e in range(len(self.estart)):
            a[self.estart[e], self.efinish[e]] += 1.0
        return a

    def path(self, start, edge_ids=()) -> Path:
        """Build and check a path from a start vertex and edge ids."""
        v = self.index(start)
        verts = [v]
        for e in edge_ids:
            if not 0 <= e < len(self.estart):
                raise GraphError(f"unknown edge id {e}")
            if self.estart[e] != verts[-1]:
                raise GraphError("edges do not compose")
            verts.append(self.efinish[e])
        return Path(tuple(verts), tuple(edge_ids))

    def path_from_vertices(self, names) -> Path:
        """Path through the given vertex ids; edges must be unambiguous."""
        idx = [self.index(x) for x in names]
        edges = []
        for u, x in zip(idx, idx[1:]):
            cands = [e for e in self._out[u] if self.efinish[e] == x]
            if not cands:
                raise GraphError(f"no edge {self.ids[u]} -> {self.ids[x]}")
            if len(cands) > 1:
                raise GraphError(
                    f"multiple edges {self.ids[u]} -> {self.ids[x]}; give edge ids")
            edges.append(cands[0])
        return Path(tuple(idx), tuple(edges))

    def with_mu2(self, mu2) -> "Graph":
        return Graph(self.ids, self.parity, mu2,
                     self.estart, self.efinish, self.erev, self.star)

    def __repr__(self):
        return (f"Graph({len(self.ids)} vertices, {self.n_edges} edges"
                + (f", star={self.ids[self.star]}" if self.star is not None else "")
                + ")")


# ---------------------------------------------------------------------------
# construction


def normalize_weights(weights) -> list[float]:
    """Positive finite vertex weights rescaled to total mass 1.

    Scaling by the largest weight first keeps huge weights from
    overflowing the sum.
    """
    for w in weights:
        if not 0 < w < math.inf:
            raise GraphError("vertex weights must be positive and finite")
    top = max(weights)
    scaled = [w / top for w in weights]
    total = sum(scaled)
    return [w / total for w in scaled]


def build_graph(vertices, edges, star=None) -> Graph:
    """Build a graph from an undirected edge list.

    vertices: iterable of (id, parity) or (id, parity, weight2) or dicts
        with keys id/parity/weight2.
    edges: iterable of (u, v, multiplicity) or dicts with keys u/v/mult.

    If any weight is supplied all weights must be; they are normalized
    to total mass 1.  Without weights a uniform placeholder weighting is
    installed (use :func:`pf_weighting` for the Perron-Frobenius one).
    """
    ids, parity, weights = [], [], []
    for spec in vertices:
        if isinstance(spec, dict):
            vid, p, w2 = spec["id"], spec["parity"], spec.get("weight2")
        else:
            vid, p = spec[0], spec[1]
            w2 = spec[2] if len(spec) > 2 else None
        ids.append(vid)
        parity.append(_parity_code(p))
        weights.append(w2)
    given = [w is not None for w in weights]
    if any(given) and not all(given):
        raise GraphError("either all vertex weights or none must be given")
    if all(given) and weights:
        mu2 = normalize_weights(weights)
    else:
        n = max(len(ids), 1)
        mu2 = [1.0 / n] * len(ids)

    index = {}
    for i, vid in enumerate(ids):
        if vid in index:
            raise GraphError(f"duplicate vertex id {vid!r}")
        index[vid] = i

    estart, efinish, erev = [], [], []
    for spec in edges:
        if isinstance(spec, dict):
            u, v, mult = spec["u"], spec["v"], spec.get("mult", 1)
        else:
            u, v = spec[0], spec[1]
            mult = spec[2] if len(spec) > 2 else 1
        if mult < 1:
            raise GraphError("edge multiplicity must be >= 1")
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None:
            raise GraphError(f"edge endpoint {u!r} or {v!r} unknown")
        if parity[iu] == parity[iv]:
            raise GraphError(f"edge {u!r}--{v!r} violates bipartiteness")
        if parity[iu] == ODD:
            iu, iv = iv, iu  # even endpoint first
        for _ in range(int(mult)):
            f = len(estart)
            estart.extend([iu, iv])
            efinish.extend([iv, iu])
            erev.extend([f + 1, f])

    star_idx = index[star] if star is not None else None
    return Graph(ids, parity, mu2, estart, efinish, erev, star_idx)


_SPEC_VERTEX_FIELDS = {"id", "parity", "weight2"}
_SPEC_EDGE_FIELDS = {"u", "v", "mult"}
# The largest total multiplicity a spec may give: `factor` on it took 2.9 s
# and 315 MB on a 2-core x86-64 host, growing linearly.
SPEC_MAX_EDGES = 1_000_000


def _finite_positive(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x) and x > 0
    except OverflowError:  # an int too large for a float
        return False


def _check_spec_id(x, what: str):
    # Integer ids would be read as vertex indices by Graph.index, and the
    # reports join ids as text, so the spec takes strings only.
    if not isinstance(x, str):
        raise GraphError(f"{what} must be a string, got {x!r}")


def graph_from_spec(record: dict):
    """Parse the external graph-spec record.

    The record has exactly the fields ``vertices: [{id, parity, weight2?}]``
    and ``edges: [{u, v, mult}]``.  Unknown fields are rejected.  Returns
    ``(graph, pf_requested)``; the weighting is the Perron-Frobenius one
    when ``weight2`` is absent.
    """
    if not isinstance(record, dict):
        raise GraphError("graph spec must be a mapping")
    extra = set(record) - {"vertices", "edges"}
    if extra:
        raise GraphError(f"unknown fields in graph spec: {sorted(extra)}")
    if "vertices" not in record or "edges" not in record:
        raise GraphError("graph spec needs 'vertices' and 'edges'")
    vs = record["vertices"]
    es = record["edges"]
    if not isinstance(vs, list) or not isinstance(es, list):
        raise GraphError("'vertices' and 'edges' must be lists")
    for v in vs:
        if not isinstance(v, dict):
            raise GraphError("vertex entries must be mappings")
        extra = set(v) - _SPEC_VERTEX_FIELDS
        if extra:
            raise GraphError(f"unknown vertex fields: {sorted(extra)}")
        if "id" not in v or "parity" not in v:
            raise GraphError("vertex entries need 'id' and 'parity'")
        _check_spec_id(v["id"], "vertex id")
        w2 = v.get("weight2")
        if w2 is not None and not _finite_positive(w2):
            raise GraphError(f"weight2 must be a finite positive number, got {w2!r}")
    for e in es:
        if not isinstance(e, dict):
            raise GraphError("edge entries must be mappings")
        extra = set(e) - _SPEC_EDGE_FIELDS
        if extra:
            raise GraphError(f"unknown edge fields: {sorted(extra)}")
        if "u" not in e or "v" not in e:
            raise GraphError("edge entries need 'u' and 'v'")
        _check_spec_id(e["u"], "edge endpoint")
        _check_spec_id(e["v"], "edge endpoint")
        mult = e.get("mult", 1)
        if not (isinstance(mult, int) and not isinstance(mult, bool) and mult >= 1):
            raise GraphError(f"edge mult must be an integer >= 1, got {mult!r}")
    total = sum(e.get("mult", 1) for e in es)
    if total > SPEC_MAX_EDGES:
        raise GraphError(f"graph spec has a total edge multiplicity of {total}, "
                         f"more than {SPEC_MAX_EDGES}")
    weighted = [v for v in vs if v.get("weight2") is not None]
    if weighted and len(weighted) != len(vs):
        raise GraphError("either every vertex or none carries weight2")
    pf_requested = not weighted
    graph = build_graph(vs, es)
    if pf_requested and vs:
        graph, _ = pf_weighting(graph)
    return graph, pf_requested


# ---------------------------------------------------------------------------
# weightings and local data


def connected_components(graph: Graph) -> list[list[int]]:
    seen = [False] * graph.n_vertices
    comps = []
    for v0 in range(graph.n_vertices):
        if seen[v0]:
            continue
        comp, stack = [], [v0]
        seen[v0] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for e in graph.out_edges(u):
                x = graph.efinish[e]
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
        comps.append(sorted(comp))
    return comps


def is_connected(graph: Graph) -> bool:
    return len(connected_components(graph)) <= 1


def pf_weighting(graph: Graph):
    """Perron-Frobenius weighting: mu2 is the positive eigenvector of the
    adjacency matrix (with multiplicities), normalized to total mass 1.

    Returns (reweighted graph, PF eigenvalue).  A is symmetric, so one
    ``eigh`` gives its spectrum in ascending order; on a connected graph
    the top eigenvalue is simple and its eigenvector has one sign
    (Perron-Frobenius), so the last column up to sign is the weighting.
    """
    if graph.n_vertices == 0:
        raise GraphError("empty graph")
    if not is_connected(graph):
        raise GraphError("PF weighting needs a connected graph")
    values, vectors = np.linalg.eigh(graph.adjacency())
    x = np.abs(vectors[:, -1])
    return graph.with_mu2((x / x.sum()).tolist()), float(values[-1])


def delta_v(graph: Graph, v) -> float:
    """Local index delta(v) = sum over edges v->w of (mu(w)/mu(v))^2.

    Under the PF weighting this equals the PF eigenvalue at every vertex.
    """
    i = graph.index(v)
    return sum(graph.mu2[graph.efinish[e]] for e in graph.out_edges(i)) / graph.mu2[i]


def delta_max(graph: Graph) -> float:
    return max(delta_v(graph, v) for v in range(graph.n_vertices))


# ---------------------------------------------------------------------------
# path enumeration


def adjacency_powers(graph: Graph):
    """Yield A^0, A^1, ... in Python integers, which do not overflow.

    (A^n)[s, f] counts the paths of length n from s to f.  Never ends.
    """
    adj = graph.adjacency().astype(np.int64).astype(object)
    power = np.identity(graph.n_vertices, dtype=np.int64).astype(object)
    while True:
        yield power
        power = power @ adj


def enumerate_paths(graph: Graph, start=None, length: int = 0, finish=None) -> list[Path]:
    """All paths of the given length, optionally with fixed endpoints.

    Exhaustive, duplicate-free and deterministic: starts ascend by vertex
    index and edges are explored in edge-id order.  Calls share the list.
    """
    return _paths(graph._out, graph.efinish, *_path_query(graph, start, length, finish))


def iter_paths(graph: Graph, start=None, length: int = 0, finish=None):
    """The paths of :func:`enumerate_paths`, in its order, one at a time.

    No list is built or held, so a caller that reads each path once
    (the freeness certificate, over up to millions of tuples) keeps its
    memory flat.
    """
    return _walk(graph._out, graph.efinish, *_path_query(graph, start, length, finish))


def _path_query(graph: Graph, start, length: int, finish):
    if length < 0:
        raise GraphError("path length must be >= 0")
    return (None if start is None else graph.index(start), length,
            None if finish is None else graph.index(finish))


# Lists held, keyed by edge structure, not graph: one pass of verify --suite
# all at degree 6 (or of any perfbench workload) asks for at most 181 (4,097
# paths), and 20 dropped dbl graphs, each listing its 32,768 paths of length
# 14, grow peak RSS by 11 MiB, where keying by graph kept them all (244 MiB).
PATHS_MEMO_MAX = 1024


@functools.lru_cache(maxsize=PATHS_MEMO_MAX)
def _paths(out_edges: tuple, efinish: tuple, s, length: int, f) -> list[Path]:
    return list(_walk(out_edges, efinish, s, length, f))


def _walk(out_edges: tuple, efinish: tuple, s, length: int, f):
    """Yield the paths depth first, on one stack of out-edge iterators."""
    starts = range(len(out_edges)) if s is None else (s,)
    if not length:
        yield from (Path((v,), ()) for v in starts if f in (None, v))
        return
    for v0 in starts:
        verts, edges, todo = [v0], [], [iter(out_edges[v0])]
        while todo:
            e = next(todo[-1], None)
            if e is None:  # the top vertex is done: step back over its edge
                todo.pop()
                if edges:
                    verts.pop()
                    edges.pop()
                continue
            verts.append(efinish[e])
            edges.append(e)
            if len(edges) < length:
                todo.append(iter(out_edges[verts[-1]]))
                continue
            if f is None or verts[-1] == f:
                yield Path(tuple(verts), tuple(edges))
            verts.pop()
            edges.pop()


# ---------------------------------------------------------------------------
# stock graphs used throughout the examples and tests


def line_graph(n_vertices: int, star_first: bool = False) -> Graph:
    """The A_n graph, PF-weighted: a path on n vertices, alternating parity from even."""
    ids = [f"v{i}" for i in range(n_vertices)]
    vertices = [(ids[i], EVEN if i % 2 == 0 else ODD) for i in range(n_vertices)]
    edges = [(ids[i], ids[i + 1], 1) for i in range(n_vertices - 1)]
    return pf_weighting(build_graph(vertices, edges, star=ids[0] if star_first else None))[0]


def star_graph(n_leaves: int) -> Graph:
    """K(1, n), PF-weighted: an odd center joined to n even leaves by single edges."""
    vertices = [("c", ODD)] + [(f"l{i}", EVEN) for i in range(n_leaves)]
    edges = [("c", f"l{i}", 1) for i in range(n_leaves)]
    return pf_weighting(build_graph(vertices, edges))[0]


def two_vertex_graph(q: int, alpha: float | None = None,
                     beta: float | None = None) -> Graph:
    """One even and one odd vertex joined by q parallel edges.

    With alpha/beta omitted the PF weighting (1/2, 1/2) is used.
    """
    if alpha is None or beta is None:
        alpha = beta = 0.5
    return build_graph([("v", EVEN, alpha), ("w", ODD, beta)], [("v", "w", q)])


def named_graph(name: str) -> Graph:
    """Small stock graphs by name (PF-weighted where applicable)."""
    name = name.lower()
    if name == "a2":
        return line_graph(2)
    if name == "a3":
        return line_graph(3)
    if name == "a4":
        return line_graph(4)
    if name in ("k1_2", "k12"):
        return star_graph(2)
    if name in ("k1_3", "k13"):
        return star_graph(3)
    if name in ("k1_4", "k14"):
        return star_graph(4)
    if name in ("dbl", "omega2"):
        return two_vertex_graph(2)
    if name == "fork":
        # two odd vertices sharing an even neighbor, plus one more even leaf
        return build_graph(
            [("w1", ODD), ("v", EVEN), ("w2", ODD), ("v2", EVEN)],
            [("v", "w1", 1), ("v", "w2", 1), ("v2", "w1", 1)])
    raise GraphError(f"unknown named graph {name!r}")
