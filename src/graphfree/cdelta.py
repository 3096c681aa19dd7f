"""Interval-through diagram category acting on local loop spaces.

The object [n] is 2n points; a basis morphism carries an interval of
through pairs between source and target, with the remaining pairs
capped or cupped off without nesting.  Loops are worth a scalar delta,
instantiated as the local index delta(v) of the ambient vertex when
acting on loops at v.  The module also builds the distinguished
elements c, c_{2n}, d, the alternating truncations x_m of the
central-atom element, and the center/atom report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, Path, delta_v, is_connected
from .gralg import GradedElement, e_vertex

Interval = tuple[int, int] | None  # inclusive (lo, hi); None is empty


def _size(iv: Interval) -> int:
    return 0 if iv is None else iv[1] - iv[0] + 1


def _norm(lo: int, hi: int) -> Interval:
    return None if lo > hi else (lo, hi)


@dataclass(frozen=True)
class TPQMorphism:
    """Basis morphism with through intervals p (target side) and q (source).

    p sits inside [1..target], q inside [1..source], equal cardinality.
    """

    source: int
    target: int
    p: Interval
    q: Interval

    def __post_init__(self):
        if _size(self.p) != _size(self.q):
            raise ValueError("through intervals must have equal cardinality")
        for iv, bound in ((self.p, self.target), (self.q, self.source)):
            if iv is not None:
                lo, hi = iv
                if not (1 <= lo <= hi <= bound):
                    raise ValueError(f"interval {iv} not inside [1..{bound}]")

    @property
    def through(self) -> int:
        return _size(self.p)


def a_minus(n: int) -> TPQMorphism:
    """Single cap at the bottom left: [n] -> [n-1]."""
    if n < 1:
        raise ValueError("a_minus needs n >= 1")
    return TPQMorphism(n, n - 1, _norm(1, n - 1), _norm(2, n))


def a_plus(n: int) -> TPQMorphism:
    """Single cap at the bottom right: [n] -> [n-1]."""
    if n < 1:
        raise ValueError("a_plus needs n >= 1")
    return TPQMorphism(n, n - 1, _norm(1, n - 1), _norm(1, n - 1))


def c_minus(n: int) -> TPQMorphism:
    """Single cup at the top left: [n] -> [n+1]."""
    return TPQMorphism(n, n + 1, _norm(2, n + 1), _norm(1, n))


def c_plus(n: int) -> TPQMorphism:
    """Single cup at the top right: [n] -> [n+1]."""
    return TPQMorphism(n, n + 1, _norm(1, n), _norm(1, n))


def tpq_compose(f: TPQMorphism, g: TPQMorphism) -> tuple[int, TPQMorphism]:
    """Composite of g then f, as (closed-loop count, basis morphism).

    Stacking identifies f's source interval with g's target interval;
    the surviving through pairs are the intersection, pulled back and
    pushed forward along the order bijections, and each pair lost to a
    closed loop contributes one power of delta.
    """
    if g.target != f.source:
        raise GraphError("object mismatch in composition")
    q, r = f.q, g.p
    if q is None or r is None:
        meet: Interval = None
    else:
        meet = _norm(max(q[0], r[0]), min(q[1], r[1]))
    union = _size(q) + _size(r) - _size(meet)
    power = f.source - union
    if meet is None:
        y = z = None
    else:
        y = (meet[0] - (q[0] - f.p[0]), meet[1] - (q[0] - f.p[0]))
        z = (meet[0] + (g.q[0] - r[0]), meet[1] + (g.q[0] - r[0]))
    return power, TPQMorphism(g.source, f.target, y, z)


def generator_word(t: TPQMorphism) -> list[tuple[str, int]]:
    """Decompose into cap/cup generators, listed in application order.

    Caps peel the source pairs outside q (left ones first, then right),
    then cups grow the target placing the through interval at p.  With
    no through pairs everything is taken on the right.
    """
    n, m = t.source, t.target
    word: list[tuple[str, int]] = []
    cur = n
    if t.q is None:
        for _ in range(n):
            word.append(("A+", cur))
            cur -= 1
        for _ in range(m):
            word.append(("C+", cur))
            cur += 1
        return word
    q_lo, q_hi = t.q
    for _ in range(q_lo - 1):
        word.append(("A-", cur))
        cur -= 1
    for _ in range(n - q_hi):
        word.append(("A+", cur))
        cur -= 1
    p_lo, p_hi = t.p
    for _ in range(p_lo - 1):
        word.append(("C-", cur))
        cur += 1
    for _ in range(m - p_hi):
        word.append(("C+", cur))
        cur += 1
    return word


def compose_word(word: list[tuple[str, int]]):
    """Compose a generator word with the composition rule (test helper)."""
    makers = {"A-": a_minus, "A+": a_plus, "C-": c_minus, "C+": c_plus}
    total_power = 0
    out = None
    for kind, level in word:
        gmor = makers[kind](level)
        if out is None:
            out = gmor
        else:
            power, out = tpq_compose(gmor, out)
            total_power += power
    return total_power, out


# ---------------------------------------------------------------------------
# the action on loops at a vertex


def _check_loops(graph: Graph, v: int, x: GradedElement, length: int):
    for p in x.terms:
        if p.length != length or p.start != v or p.finish != v:
            raise GraphError(f"element must live on length-{length} loops at {graph.ids[v]}")


def _act_a_minus(graph: Graph, v: int, x: GradedElement) -> GradedElement:
    out: dict[Path, float] = {}
    for p, c in x.terms.items():
        if p.edges[0] == graph.erev[p.edges[1]]:
            q = p.segment(2, p.length)
            val = c * graph.mu(p.vertices[1]) / graph.mu(v)
            out[q] = out.get(q, 0.0) + val
    return GradedElement(graph, out)


def _act_a_plus(graph: Graph, v: int, x: GradedElement) -> GradedElement:
    out: dict[Path, float] = {}
    for p, c in x.terms.items():
        if p.edges[-2] == graph.erev[p.edges[-1]]:
            q = p.segment(0, p.length - 2)
            val = c * graph.mu(p.vertices[-2]) / graph.mu(v)
            out[q] = out.get(q, 0.0) + val
    return GradedElement(graph, out)


def _doubled_edges(graph: Graph, v: int) -> list[tuple[Path, float]]:
    out = []
    for e in graph.out_edges(v):
        w = graph.efinish[e]
        out.append((Path((v, w, v), (e, graph.erev[e])), graph.mu(w) / graph.mu(v)))
    return out


def _act_c_minus(graph: Graph, v: int, x: GradedElement) -> GradedElement:
    out: dict[Path, float] = {}
    for p, c in x.terms.items():
        for rho, w in _doubled_edges(graph, v):
            q = rho.concat(p)
            out[q] = out.get(q, 0.0) + c * w
    return GradedElement(graph, out)


def _act_c_plus(graph: Graph, v: int, x: GradedElement) -> GradedElement:
    out: dict[Path, float] = {}
    for p, c in x.terms.items():
        for rho, w in _doubled_edges(graph, v):
            q = p.concat(rho)
            out[q] = out.get(q, 0.0) + c * w
    return GradedElement(graph, out)


_GEN_ACT = {"A-": _act_a_minus, "A+": _act_a_plus,
            "C-": _act_c_minus, "C+": _act_c_plus}


def gen_act(graph: Graph, v, kind: str, x: GradedElement) -> GradedElement:
    return _GEN_ACT[kind](graph, graph.index(v), x)


def tpq_act(graph: Graph, v, t: TPQMorphism, x: GradedElement) -> GradedElement:
    """Action of a basis morphism on loops at v of length 2*source."""
    vi = graph.index(v)
    if not x.is_zero():
        _check_loops(graph, vi, x, 2 * t.source)
    cur = x
    for kind, _ in generator_word(t):
        cur = _GEN_ACT[kind](graph, vi, cur)
    return cur


def weight_functional(t: TPQMorphism, delta: float) -> float:
    """Multiplicative weight delta^((source+target)/2 - through)."""
    return delta ** ((t.source + t.target) / 2 - t.through)


# ---------------------------------------------------------------------------
# distinguished elements


def c_element(graph: Graph, v) -> GradedElement:
    """The doubled-edge sum at v (one cup applied to the corner unit)."""
    vi = graph.index(v)
    return _act_c_minus(graph, vi, e_vertex(graph, vi))


def c_2n(graph: Graph, v, n: int) -> GradedElement:
    """n left cups applied to the corner unit; top term of the n-th power."""
    vi = graph.index(v)
    cur = e_vertex(graph, vi)
    for _ in range(n):
        cur = _act_c_minus(graph, vi, cur)
    return cur


def d_element(graph: Graph, v) -> GradedElement:
    """The depth-two exploration sum at v with weights mu(x)/mu(v)."""
    vi = graph.index(v)
    out: dict[Path, float] = {}
    for e in graph.out_edges(vi):
        w = graph.efinish[e]
        for e2 in graph.out_edges(w):
            xv = graph.efinish[e2]
            p = Path((vi, w, xv, w, vi),
                     (e, e2, graph.erev[e2], graph.erev[e]))
            out[p] = out.get(p, 0.0) + graph.mu(xv) / graph.mu(vi)
    return GradedElement(graph, out)


def zv_truncation(graph: Graph, v, m: int) -> GradedElement:
    """Alternating partial sum x_m = sum (-1)^n c_{2n}, n <= m."""
    vi = graph.index(v)
    out = GradedElement(graph)
    cur = e_vertex(graph, vi)
    for n in range(m + 1):
        out = out + ((-1.0) ** n) * cur
        cur = _act_c_minus(graph, vi, cur)
    return out


def cpaq_operator(graph: Graph, v, p: int, q: int, x: GradedElement) -> GradedElement:
    """q left caps then p left cups, as in the block form of x_m."""
    vi = graph.index(v)
    cur = x
    for _ in range(q):
        cur = _act_a_minus(graph, vi, cur)
    for _ in range(p):
        cur = _act_c_minus(graph, vi, cur)
    return cur


def xm_block(graph: Graph, v, m: int, i: int, j: int, x: GradedElement) -> GradedElement:
    """The (i, j) block of multiplication by x_m on degree-2j loops.

    Zero unless the degrees can talk to each other; otherwise a signed
    cap/cup composite, with the sign and exponents depending on whether
    the truncation m exceeds i+j.
    """
    if m > i + j:
        return ((-1.0) ** (i + j)) * cpaq_operator(graph, v, i, j, x)
    if m < abs(i - j) or (i + j - m) % 2:
        return GradedElement(graph)
    return ((-1.0) ** m) * cpaq_operator(
        graph, v, (m - j + i) // 2, (m + j - i) // 2, x)


# ---------------------------------------------------------------------------
# center structure


@dataclass(frozen=True)
class CenterReport:
    """Center of the local algebra at one vertex of a connected graph."""

    vertex: str
    delta_v: float
    center_dim: int
    atom_trace: float | None

    def as_dict(self):
        return {"vertex": self.vertex, "delta_v": self.delta_v,
                "center_dim": self.center_dim, "atom_trace": self.atom_trace}


def center_report(graph: Graph, v) -> CenterReport:
    """Local center: two-dimensional with a minimal atom iff delta(v) < 1.

    Requires a connected graph with at least two edges.
    """
    if not is_connected(graph):
        raise GraphError("center report needs a connected graph")
    if graph.n_edges < 2:
        raise GraphError("center report needs at least two edges")
    vi = graph.index(v)
    d = delta_v(graph, vi)
    if d < 1.0:
        return CenterReport(graph.ids[vi], d, 2, (1.0 - d) * graph.mu2[vi])
    return CenterReport(graph.ids[vi], d, 1, None)


def graph_atoms(graph: Graph) -> list[tuple[str, float]]:
    """Atoms (vertex, (1 - delta(v)) mu2(v)) over vertices with delta(v) < 1."""
    out = []
    for vi in range(graph.n_vertices):
        d = delta_v(graph, vi)
        if d < 1.0:
            out.append((graph.ids[vi], (1.0 - d) * graph.mu2[vi]))
    return out
