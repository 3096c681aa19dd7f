"""The epi-cap category acting on path spaces.

Morphisms n -> m (n - m even, nonnegative) are planar diagrams whose
every top point connects downward: m through strands plus (n-m)/2 caps
on the bottom line.  A morphism is stored by the strictly increasing
tuple of left endpoints of its caps, which is a complete invariant.
Composition is implemented twice: by tracing strands through the
stacked diagram (production) and by rewriting generator words with the
exchange relation (oracle).

This module holds the only kernels of the two local generators: the
cap (:func:`act`, one factor per cap of a morphism) and its adjoint
cup (:func:`cup`).  The interval-through category of :mod:`cdelta`
acts through them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, Path, enumerate_paths
from .gralg import GradedElement
from . import noncross


@dataclass(frozen=True)
class EpiMorphism:
    """Element of Hom([source],[target]) in cap canonical form.

    caps lists the left endpoints i_1 < ... < i_k of the caps, subject
    to i_j <= target + 2j - 1; the caps are non-nested exactly when
    consecutive entries differ by at least 2.
    """

    source: int
    target: int
    caps: tuple[int, ...]

    def __post_init__(self):
        n, m, caps = self.source, self.target, self.caps
        if n < 0 or m < 0 or n < m or (n - m) % 2:
            raise ValueError(f"no morphisms [{n}] -> [{m}]")
        if len(caps) != (n - m) // 2:
            raise ValueError("cap count must be (source-target)/2")
        prev = 0
        for j, i in enumerate(caps, start=1):
            if i <= prev:
                raise ValueError("cap endpoints must strictly increase")
            if i > m + 2 * j - 1:
                raise ValueError(f"cap endpoint {i} too large at slot {j}")
            prev = i

    def cap_pairs(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """Resolve caps and through points of the diagram.

        Scanning left to right, a left endpoint opens a cap; any other
        point closes the innermost open cap, or passes through when no
        cap is open.  Returns (pairs, through points), both ascending.
        """
        lefts = set(self.caps)
        stack: list[int] = []
        pairs: list[tuple[int, int]] = []
        through: list[int] = []
        for p in range(1, self.source + 1):
            if p in lefts:
                stack.append(p)
            elif stack:
                pairs.append((stack.pop(), p))
            else:
                through.append(p)
        if stack:
            raise ValueError("unbalanced caps")  # excluded by the slot bound
        pairs.sort()
        return tuple(pairs), tuple(through)

    def word(self) -> tuple[tuple[int, int], ...]:
        """Canonical generator word as (level, index) pairs.

        The morphism is the composite of single-cap generators with the
        rightmost factor (largest level) applied first.
        """
        m = self.target
        return tuple((m + 2 * j, i) for j, i in enumerate(self.caps, start=1))


# cached: cdelta.gen_act asks for the same two end caps on every call
@functools.lru_cache(maxsize=256)
def cap_generator(n: int, i: int) -> EpiMorphism:
    """The single-cap generator joining bottom points i, i+1 of [n]."""
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} out of range for [{n}]")
    return EpiMorphism(n, n - 2, (i,))


def from_tl(t: noncross.NCPartition) -> EpiMorphism:
    """A pairing of {1..2n} as the corresponding element of Hom([2n],[0])."""
    if not t.is_pairing():
        raise ValueError("need a pairing")
    f = EpiMorphism(t.n, 0, tuple(sorted(b[0] for b in t.blocks)))
    if f.cap_pairs()[0] != t.blocks:
        raise ValueError("pairing is not planar")
    return f


def to_tl(f: EpiMorphism) -> noncross.NCPartition:
    if f.target != 0:
        raise ValueError("only morphisms to [0] are bare pairings")
    return noncross.nc(f.source, f.cap_pairs()[0])


# ---------------------------------------------------------------------------
# composition


def compose(f: EpiMorphism, g: EpiMorphism) -> EpiMorphism:
    """Composite f.g of g: [p] -> [n] followed by f: [n] -> [m].

    Traces strands through the stacked diagram: caps of g survive, caps
    of f pull back to pairs of g's through points, and f's through
    points select the composite's through points.
    """
    if g.target != f.source:
        raise GraphError(
            f"cannot compose [{g.source}]->[{g.target}] with [{f.source}]->[{f.target}]")
    g_pairs, g_through = g.cap_pairs()
    f_pairs, _ = f.cap_pairs()
    pairs = list(g_pairs)
    for a, b in f_pairs:
        pairs.append((g_through[a - 1], g_through[b - 1]))
    caps = tuple(sorted(p[0] for p in pairs))
    out = EpiMorphism(g.source, f.target, caps)
    if set(out.cap_pairs()[0]) != {tuple(sorted(p)) for p in pairs}:
        raise AssertionError("strand tracing produced a non-planar diagram")
    return out


def compose_by_rewriting(f: EpiMorphism, g: EpiMorphism) -> EpiMorphism:
    """Oracle composite via the exchange relation on generator words.

    Concatenating the canonical words gives a word with ascending levels
    whose indices may fail to ascend; each descent (x, y) with x >= y at
    adjacent levels rewrites to (y, x+2) until the word is canonical.
    """
    if g.target != f.source:
        raise GraphError("object mismatch")
    idx = [i for _, i in f.word()] + [i for _, i in g.word()]
    changed = True
    while changed:
        changed = False
        for t in range(len(idx) - 1):
            x, y = idx[t], idx[t + 1]
            if x >= y:
                idx[t], idx[t + 1] = y, x + 2
                changed = True
    return EpiMorphism(g.source, f.target, tuple(idx))


# verify's compose-vs-rewriting check reads the largest keys in use, n <= 10:
# fewer than 64 pairs (n, m) with m <= n of equal parity.
@functools.lru_cache(maxsize=64)
def enumerate_hom(n: int, m: int) -> list[EpiMorphism]:
    """All elements of Hom([n],[m]), in lexicographic order of their caps."""
    if n < m or (n - m) % 2:
        return []
    return [EpiMorphism(n, m, caps)
            for caps in itertools.combinations(range(1, n), (n - m) // 2)
            if all(i < m + 2 * j for j, i in enumerate(caps, start=1))]


# ---------------------------------------------------------------------------
# the action on path spaces


def act(f: EpiMorphism, x: GradedElement) -> GradedElement:
    """Linear action of a morphism on a homogeneous element.

    Applies the canonical single-cap decomposition factor by factor,
    innermost (largest level, last cap) first.  The generator at
    position i kills a path unless e_{i+1} reverses e_i, and otherwise
    drops that edge pair, weighing mu(v_i)/mu(v_{i+1}).
    """
    g = x.graph
    mu, erev = g.mu, g.erev
    out: dict[Path, float] = {}
    for (verts, edges), c in x.terms.items():
        if len(edges) != f.source:
            raise GraphError(f"length-{len(edges)} path fed to [{f.source}] morphism")
        for i in reversed(f.caps):
            if edges[i - 1] != erev[edges[i]]:
                break
            c *= mu(verts[i]) / mu(verts[i + 1])
            verts, edges = verts[:i] + verts[i + 2:], edges[:i - 1] + edges[i + 1:]
        else:
            q = Path(verts, edges)
            out[q] = out.get(q, 0.0) + c
    return GradedElement(g, out)


def cup(x: GradedElement, i: int) -> GradedElement:
    """Splice every doubled edge rho.rho~ at vertex v_i of each path.

    The adjoint of the cap joining edges i+1, i+2: with w the far end
    of rho, the spliced path weighs mu(w)/mu(v_i).  Every path of x
    needs length at least i.
    """
    g = x.graph
    mu, efinish, erev = g.mu, g.efinish, g.erev
    out: dict[Path, float] = {}
    for (verts, edges), c in x.terms.items():
        if not 0 <= i <= len(edges):
            raise GraphError(f"cup slot {i} out of range for a length-{len(edges)} path")
        v = verts[i]
        head, tail = verts[:i + 1], (v,) + verts[i + 1:]
        for e in g.out_edges(v):
            w = efinish[e]
            q = Path(head + (w,) + tail, edges[:i] + (e, erev[e]) + edges[i:])
            out[q] = out.get(q, 0.0) + c * (mu(w) / mu(v))
    return GradedElement(g, out)


def closed_cap_value(graph: Graph, t: noncross.NCPartition, path: Path) -> float:
    """Closed form for a full pairing acting on a path of length 2n.

    The value is mu(v_n)/mu(v_2n) times delta/mu-ratio factors split by
    whether a pair sits left of, across, or right of the midpoint.
    """
    two_n = path.length
    if two_n != t.n or two_n % 2:
        raise GraphError("need a pairing of the path's edge slots")
    n = two_n // 2
    coeff = graph.mu(path.vertices[n]) / graph.mu(path.vertices[two_n])
    for a, b in t.blocks:
        if path.edges[a - 1] != graph.erev[path.edges[b - 1]]:
            return 0.0
        if b <= n or a > n:
            coeff *= graph.mu(path.vertices[a]) / graph.mu(path.vertices[b])
    return coeff


# ---------------------------------------------------------------------------
# matrices of the action


def path_matrix(graph: Graph, source: int, target: int, linear_map, at=None) -> np.ndarray:
    """Dense matrix of a linear map from length-source to length-target paths,
    or to and from the loops at vertex ``at`` when it is given.

    Caps and cups keep both ends of a path, so the matrix on bare paths
    is also the one on unit paths p / sqrt(mu(start) mu(finish)), the
    orthonormal basis that adjoints and operator norms need.
    """
    rows = enumerate_paths(graph, at, target, at)
    cols = enumerate_paths(graph, at, source, at)
    row_index = {p: k for k, p in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)))
    for j, p in enumerate(cols):
        for q, c in linear_map(GradedElement.basis(graph, p)).terms.items():
            mat[row_index[q], j] = c
    return mat


def hom_matrix(graph: Graph, f: EpiMorphism) -> np.ndarray:
    """Matrix of the action from length-source paths to length-target paths."""
    return path_matrix(graph, f.source, f.target, lambda x: act(f, x))


def cap_adjoint_matrix(graph: Graph, n: int, i: int) -> np.ndarray:
    """Matrix of the cup at vertex v_{i-1}, the adjoint of cap generator i.

    Maps unit paths of length n-2 to length n.
    """
    return path_matrix(graph, n - 2, n, lambda x: cup(x, i - 1))
