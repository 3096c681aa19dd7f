"""Operator-valued moments and free cumulants over the degree-zero corner.

The base algebra is spanned by the even vertex idempotents, so its
elements are vertex-indexed coefficient maps.  The moment of a tuple of
length-2 paths is the trace of the concatenation read off at its base
vertex (t o Phi = tau); the cumulants come out of Mobius inversion over
non-crossing partitions and, independently, from a one-diagram closed
form supported on starry composites.  Vanishing of the mixed cumulants
certifies freeness with amalgamation of the single-hub subalgebras over
the base.  A moment joins its generators' edge tuples and reads the
trace memo by them, building no composite path.  The matrix moments of
the two-vertex graph walk one word per relabelling of the q parallel
edges, counted q (q-1) ... (q-b+1) times for its b letters, on one face
stack: one row per distinct suffix of the kept loops, at most Bell(k)
words of order k where there are q^k.

A multiplicative extension on pi folds its interval blocks, one at a
time, into the argument on their left; :func:`multiplicative_extension`
does so by recursion, as the oracle.  Mobius inversion fixes the order
as extraction plans on positions and keeps those of NC(n) as one trie,
built once per n straight from the block families, with mu(pi, 1_n)
carried down it as Kreweras classes merge.  It walks the trie against
one memo of block values per tuple: each distinct block (at most 2^n -
1) reaches the kernel once, each step's scalar is read once per shared
prefix, a zero scalar skips every plan below it, and the surviving
plans are summed from a table indexed by their rank in NC(n).

The work counts of ``cumulants``, ``freeness`` and ``moments
--matrix-moments`` (Catalan(n), :func:`freeness_extensions`,
:func:`matrix_moment_rows`) and their budgets sit beside the kernels they
size.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import asdict, dataclass, field
from operator import itemgetter, mul

from .graphs import Graph, GraphError, Path, adjacency_powers, enumerate_paths, iter_paths
from .gralg import FaceStack, GradedElement, max_abs, max_abs_diff, tau_loop
from . import epitl, noncross

BElement = dict[int, float]  # vertex index -> coefficient of the idempotent


def b_norm(a: BElement) -> float:
    return max_abs(a.values())


b_diff_norm = max_abs_diff


def _compose_all(paths) -> Path | None:
    cur = paths[0]
    for p in paths[1:]:
        cur = cur.concat(p)
        if cur is None:
            return None
    return cur


def _check_generators(graph: Graph, paths):
    for p in paths:
        if p.length != 2:
            raise GraphError("cumulant arguments must be length-2 paths")
        if graph.parity[p.start] != 0:
            raise GraphError("cumulant arguments must start at even vertices")


# ---------------------------------------------------------------------------
# moments


def moment_phi(graph: Graph, paths) -> BElement:
    """Base-valued moment: the trace of the product, read off at its base.

    A loop at v has moment tau(loop) / mu2(v) at v, the degree-zero
    component of the filtered image of the concatenation; the moment
    vanishes unless the paths compose into a loop.
    """
    _check_generators(graph, paths)
    return _loop_moment(graph, paths)


def _loop_moment(graph: Graph, paths) -> BElement:
    """:func:`moment_phi` on generators already checked.

    One pass tests that the endpoints chain into a loop and joins the
    edge tuples: the trace memo is keyed by them, so no composite path
    is built.
    """
    at = paths[-1][0][-1]  # the first path starts where the last one ends
    edges = ()
    for verts, es in paths:
        if verts[0] != at:
            return {}
        at = verts[-1]
        edges += es
    val = tau_loop(graph, edges) / graph.mu2[at]
    return {at: val} if val else {}


# ---------------------------------------------------------------------------
# multiplicative extensions and Mobius inversion


def multiplicative_extension(kernel, pi: noncross.NCPartition, paths,
                             pick: str = "first") -> BElement:
    """The multiplicative extension of a family of maps on pi, by recursion.

    ``kernel(paths)`` gives the map on full tuples.  An interval block
    not holding the first point (the first or the last by ``pick``) is
    extracted, its value is read at the finish of the argument on its
    left, and the scalar multiplies the extension of the rest, relabelled
    through ``noncross.nc``.  This is the oracle for the plan trie of
    :func:`_sum_extensions`; ``pick`` lets a check confirm the result does
    not depend on the extraction order.
    """
    if len(paths) != pi.n:
        raise GraphError("arity mismatch")
    if pi.num_blocks == 1:
        return kernel(paths)
    candidates = [b for b in pi.blocks if b[0] > 1 and b[-1] - b[0] + 1 == len(b)]
    if not candidates:
        raise GraphError("no interval block; partition is not non-crossing")
    block = candidates[0] if pick == "first" else candidates[-1]
    k, l = block[0] - 1, block[-1]
    scalar = kernel(tuple(paths[k:l])).get(paths[k - 1].finish, 0.0)
    if scalar == 0.0:
        return {}
    # the points right of the block shift left over it
    rest_pi = noncross.nc(pi.n - len(block),
                          [tuple(x if x <= k else x - len(block) for x in b)
                           for b in pi.blocks if b is not block])
    rest = multiplicative_extension(kernel, rest_pi, tuple(paths[:k] + paths[l:]), pick)
    return {v: scalar * c for v, c in rest.items()}


def moment_pi(graph: Graph, pi: noncross.NCPartition, paths,
              pick: str = "first") -> BElement:
    return multiplicative_extension(lambda ps: moment_phi(graph, ps), pi, paths, pick)


def kappa_mobius(graph: Graph, paths) -> BElement:
    """Cumulant by Mobius inversion of the moment family over NC(n)."""
    _check_generators(graph, paths)
    return kappa_of_moments(lambda ps: _loop_moment(graph, ps), paths)


# The cumulants command refuses an n-tuple when NC(n) has more partitions than
# this: Mobius inversion builds and caches a plan trie of all Catalan(n) of
# them, and 12 entries of _mobius_row hold every n it admits.  README's budget
# table gives the measured costs of this budget and the two below.
CUMULANTS_MAX_PARTITIONS = 100_000


@functools.lru_cache(maxsize=12)
def _mobius_row(n: int):
    """The extraction plans of NC(n) as one trie, with mu(pi, 1_n) per plan.

    A prefix of a plan is itself the plan of a partition of NC(n), the
    one that merges the points still present into the outer block, so
    the trie has one node per partition.  Returns ``(root, nodes)``:
    ``root`` is ``(rank, mu, outer)`` for 1_n, whose plan has no step,
    and ``nodes`` holds every other partition in preorder as ``(depth,
    block, left, end, rank, mu, outer)``.  Those are the last step
    (block, left) of its plan, taken at that depth; the index just past
    its subtree; its rank in NC(n); mu(pi, 1_n); and its outer block.

    One pass over the block families of ``noncross._nc_blocks`` builds
    it, with no partition object and no rank scan.  The first-interval
    rule, extracting the first interval block without point 1 among the
    points still present, takes the blocks other than the outer one in
    order of their last point, each into the nearest point still present
    on its left.  mu, the product of s(k) = (-1)^(k-1) Cat(k-1) over the
    Kreweras classes, is carried down the trie: each gap of the outer
    block keeps the size of its own class (1 at the root, where mu = 1),
    and folding out the run outer[a..b] merges the classes of gaps a-1
    and b, of sizes k1 and k2, so mu gains s(k1 + k2) / (s(k1) s(k2)).
    """
    if n < 1:
        raise GraphError("Mobius inversion needs at least one argument")
    signed = [0] + [(-1) ** k * noncross.catalan(k) for k in range(n)]  # s(k)
    shifted: dict = {}  # block of {1..n} -> its 0-based positions, one tuple each
    root: list = [None, {}]  # [rank, {step: child}]
    for rank, blocks in enumerate(noncross._nc_blocks(1, n)):
        pos = []
        for b in blocks[1:]:
            p = shifted.get(b)
            if p is None:
                p = shifted[b] = tuple(x - 1 for x in b)
            pos.append(p)
        present = [True] * n
        node = root
        for block in sorted(pos, key=itemgetter(-1)):
            left = block[0] - 1
            while not present[left]:
                left -= 1
            for x in block:
                present[x] = False
            child = node[1].get((block, left))
            if child is None:
                child = node[1][block, left] = [None, {}]
            node = child
        node[0] = rank

    nodes: list = []
    outers: dict = {}  # one tuple per outer block, shared by its nodes

    def flatten(children, depth, mu, outer, gaps):
        for (block, left), (rank, grand) in children.items():
            a = outer.index(left) + 1
            b = a + len(block)
            k1, k2 = gaps[a - 1], gaps[b - 1]
            child_mu = mu * signed[k1 + k2] // (signed[k1] * signed[k2])
            child_outer = outer[:a] + outer[b:]
            child_outer = outers.setdefault(child_outer, child_outer)
            at = len(nodes)
            nodes.append(None)
            flatten(grand, depth + 1, child_mu, child_outer,
                    gaps[:a - 1] + (k1 + k2,) + gaps[b:])
            nodes[at] = (depth, block, left, len(nodes), rank, float(child_mu), child_outer)

    flatten(root[1], 0, 1, tuple(range(n)), (1,) * n)
    return (root[0], 1.0, tuple(range(n))), tuple(nodes)


def _sum_extensions(kernel, paths, weighted: bool) -> BElement:
    """Sum over NC(n) of the kernel's extensions, times mu(pi, 1_n) if weighted.

    Walks the plan trie of :func:`_mobius_row`: each step's scalar is
    read once per distinct prefix, and a zero scalar skips every plan
    below it.  One memo serves every plan, so each distinct block's
    kernel value is computed once per tuple.  A surviving plan scales
    its outer value innermost (last extracted) scalar first, as
    :func:`multiplicative_extension` associates them, into a table by its
    rank in NC(n), summed in rank order: the result is that function's
    sum over NC(n) to the last bit.
    """
    root, nodes = _mobius_row(len(paths))
    memo: dict = {}
    finish = [p[0][-1] for p in paths]
    scalars = [0.0] * len(paths)
    table: list = [None] * (len(nodes) + 1)
    i, size = 0, len(nodes)
    while i < size:
        depth, block, left, end, rank, coeff, outer = nodes[i]
        val = memo.get(block)
        if val is None:
            val = memo[block] = kernel(tuple(paths[k] for k in block))
        scalar = val.get(finish[left], 0.0)
        if scalar == 0.0:
            i = end
            continue
        scalars[depth] = scalar
        out = memo.get(outer)
        if out is None:
            out = memo[outer] = kernel(tuple(paths[k] for k in outer))
        if out:
            innermost_first = scalars[depth::-1]
            table[rank] = (coeff, {v: functools.reduce(mul, innermost_first, c)
                                   for v, c in out.items()})
        i += 1
    table[root[0]] = (root[1], kernel(tuple(paths)))
    total: BElement = {}
    for coeff, out in filter(None, table):
        for v, c in out.items():
            total[v] = total.get(v, 0.0) + (coeff * c if weighted else c)
    return {v: c for v, c in total.items() if c != 0}


def kappa_of_moments(kernel, paths) -> BElement:
    """Mobius inversion: sum of mu(pi, 1_n) times the kernel's extension on pi."""
    return _sum_extensions(kernel, paths, weighted=True)


def kappa_from_kernel(kernel, paths) -> BElement:
    """Moment recovery: sum of the kernel's extensions over NC(n)."""
    return _sum_extensions(kernel, paths, weighted=False)


# ---------------------------------------------------------------------------
# the starry closed form


def kappa_starry(graph: Graph, paths) -> BElement:
    """Closed-form cumulant: one cap diagram on a starry composite.

    Nonzero only when the concatenation is starry; the value is the
    product of the even interior mu's over mu(hub)^(n-2) mu(base).
    """
    _check_generators(graph, paths)
    n = len(paths)
    composite = _compose_all(paths)
    if composite is None or not noncross.is_starry(graph, composite):
        return {}
    v = composite.start
    hub = composite.vertices[1]
    val = 1.0
    for i in range(1, n):
        val *= graph.mu(composite.vertices[2 * i])
    val /= graph.mu(hub) ** (n - 2) * graph.mu(v)
    return {v: val}


def spi_value(graph: Graph, pi: noncross.NCPartition, paths) -> BElement:
    """Product formula for the doubled diagram acting on a concatenation.

    Each block {c_1 < ... < c_t} matches the closing edge of c_p with
    the opening edge of c_{p+1} cyclically, with the corresponding
    mu-ratios.  Agrees with the doubled-diagram action itself.
    """
    _check_generators(graph, paths)
    n = len(paths)
    if pi.n != n:
        raise GraphError("partition size mismatch")
    composite = _compose_all(paths)
    if composite is None:
        return {}
    val = 1.0
    for b in pi.blocks:
        t = len(b)
        first, last = paths[b[0] - 1], paths[b[-1] - 1]
        if last.edges[1] != graph.erev[first.edges[0]]:
            return {}
        val *= graph.mu(first.vertices[1]) / graph.mu(last.vertices[2])
        for idx in range(t - 1):
            cur, nxt = paths[b[idx] - 1], paths[b[idx + 1] - 1]
            if cur.edges[1] != graph.erev[nxt.edges[0]]:
                return {}
            val *= graph.mu(cur.vertices[2]) / graph.mu(nxt.vertices[1])
    return {composite.start: val}


def doubled_action(graph: Graph, pi: noncross.NCPartition, paths) -> BElement:
    """Brute-force action of the doubled diagram on the concatenation."""
    composite = _compose_all(paths)
    if composite is None:
        return {}
    f = epitl.from_tl(noncross.double_bijection(pi))
    img = epitl.act(f, GradedElement.basis(graph, composite))
    return {q.start: c for q, c in img.terms.items() if c != 0}


# ---------------------------------------------------------------------------
# freeness certificate


@dataclass
class FreenessReport:
    """Outcome of the finite mixed-cumulant check.

    The certificate is exhaustive only up to ``max_order``; freeness
    with amalgamation needs all orders, so this is evidence, not proof.
    """

    max_order: int
    tol: float
    n_tuples: int
    max_mixed_cumulant: float
    passed: bool
    witness: str = ""
    stp_checks: int = 0
    stp_max_dev: float = 0.0
    notes: list[str] = field(default_factory=list)

    def as_dict(self):
        return asdict(self)


def even_generators(graph: Graph) -> list[Path]:
    """Length-2 paths between even vertices, the corner generators."""
    return [p for v in graph.vertices_of_parity(0) for p in enumerate_paths(graph, v, 2)]


def hubs(graph: Graph) -> tuple[int, ...]:
    """The odd vertices with an edge: the hubs a generator passes through.

    A tuple is mixed when its generators pass two of them, so a graph
    with at most one has no mixed tuple at any order.
    """
    return tuple(v for v in graph.vertices_of_parity(1) if graph.out_edges(v))


def _mixed_orders(graph: Graph, max_order: int) -> range:
    """The orders 2..max_order, or none where fewer than two :func:`hubs` mix no tuple."""
    return range(2, max_order + 1 if len(hubs(graph)) > 1 else 2)


def draw_tuple(gens, by_start, k: int, rng: random.Random):
    """A random composable k-tuple of generators, or None where the walk dead-ends.

    The first is drawn from ``gens``, each next one from ``by_start`` of
    the finish before it, one ``rng.choice`` of the stdlib
    ``random.Random`` per draw; an empty pool ends the walk before a draw.
    """
    tup = ()
    for _ in range(k):
        pool = by_start.get(tup[-1].finish) if tup else gens
        if not pool:
            return None
        tup += (rng.choice(pool),)
    return tup


def freeness_certificate(graph: Graph, max_order: int = 5, tol: float = 1e-10,
                         rng: random.Random | None = None) -> FreenessReport:
    """Check that mixed cumulants of the corner generators vanish.

    The composable k-tuples of generators are the length-2k paths from
    the even vertices, read one at a time from
    :func:`~graphfree.graphs.iter_paths` and cut into two-edge pieces
    with ``Path.segment``; a tuple is mixed when its hubs, the odd
    vertices of the path, are not all one.  Every mixed tuple of orders
    2..max_order goes through the Mobius-inversion cumulant, and the
    first largest one is the witness of a failure; a graph with at most
    one of :func:`hubs` has none, and no path is walked.  With ``rng``, a
    stdlib ``random.Random``, 20 draws of :func:`draw_tuple` and a random
    partition spot-check the product formula for the doubled diagrams
    against their brute-force action.  The certificate passes when both
    deviations are at most ``tol``; a NaN fails it.
    """
    if max_order < 2:
        raise GraphError("max_order must be at least 2")
    gens = even_generators(graph)
    evens = graph.vertices_of_parity(0)
    worst, worst_tup, count = 0.0, (), 0
    for k in _mixed_orders(graph, max_order):
        for path in (q for v in evens for q in iter_paths(graph, v, 2 * k)):
            if len(set(path.vertices[1::2])) == 1:
                continue
            tup = tuple(path.segment(i, i + 2) for i in range(0, 2 * k, 2))
            count += 1
            val = b_norm(kappa_mobius(graph, tup))
            # the first NaN is kept, and witnessed: later values never beat it
            if val > worst or (val != val and worst == worst):
                worst, worst_tup = val, tup
    devs = []
    if rng is not None and gens:
        by_start = {v: enumerate_paths(graph, v, 2) for v in evens}
        for _ in range(20):
            k = rng.randrange(1, 4)
            tup = draw_tuple(gens, by_start, k, rng)
            if tup is None:
                continue
            pi = rng.choice(noncross.enumerate_nc(k))
            devs.append(b_diff_norm(spi_value(graph, pi, tup), doubled_action(graph, pi, tup)))
    stp_dev = max_abs(devs)
    passed = worst <= tol and stp_dev <= tol  # a NaN compares false
    # a passing certificate's argmax is a rounding-level cumulant, not a witness
    witness = "" if passed else " ; ".join(
        "->".join(graph.ids[v] for v in p.vertices) for p in worst_tup)
    notes = [f"exhaustive only through order {max_order}; "
             "freeness with amalgamation needs all orders"]
    return FreenessReport(max_order, tol, count, worst, passed, witness,
                          len(devs), stp_dev, notes)


# freeness refuses above this many (tuple, partition) extensions
# (freeness_extensions).
FREENESS_MAX_EXTENSIONS = 10_000_000


def freeness_extensions(graph: Graph, max_order: int):
    """Yield (k, extensions to order k): even paths of length 2k, by A^(2k), times Catalan(k)."""
    evens, total = graph.vertices_of_parity(0), 0
    for k, power in zip(_mixed_orders(graph, max_order),
                        itertools.islice(adjacency_powers(graph), 4, None, 2)):
        total += sum(power[v, w] for v in evens for w in evens) * noncross.catalan(k)
        yield k, total


# ---------------------------------------------------------------------------
# matrix moments for the two-vertex graph


def nc_rate_moment(rate: float, k: int) -> float:
    """Sum of rate^(number of blocks) over NC(k); Catalan at rate 1.

    NC(k) has the Narayana number C(k,b) C(k,b-1) / k of partitions with
    b blocks, so no partition is enumerated.  For rate >= 0, where a float
    overflows (rate ** b, or the integer factor past k of about 520) the
    sum is taken exactly and rounded once, so it is inf only if the sum
    itself is past the float range.
    """
    if k == 0:
        return 1.0
    try:
        return sum(math.comb(k, b) * math.comb(k, b - 1) // k * rate ** b
                   for b in range(1, k + 1))
    except OverflowError:
        if not math.isfinite(rate):  # every term is already inf or nan
            return rate
    num, den = rate.as_integer_ratio()
    top = sum(math.comb(k, b) * math.comb(k, b - 1) // k * num ** b * den ** (k - b)
              for b in range(1, k + 1))
    try:
        return top / den ** k  # int / int rounds once, or raises past the float range
    except OverflowError:
        return math.inf


def two_vertex_edges(graph: Graph):
    """(w, the w -> v edges) of a two-vertex graph with odd w; GraphError on any other."""
    odds = graph.vertices_of_parity(1)
    if len(odds) != 1 or len(graph.vertices_of_parity(0)) != 1:
        raise GraphError("matrix moments need a two-vertex graph")
    forward = graph.out_edges(odds[0])
    if not forward:
        raise GraphError("matrix moments need at least one edge")
    return odds[0], forward


# moments --matrix-moments refuses above this many face rows
# (matrix_moment_rows).
MATRIX_MOMENTS_MAX_ROWS = 1_000_000


def matrix_moment_rows(graph: Graph, kmax: int):
    """Yield (k, face rows :func:`omega_matrix_moments` pushes up to order k), k = 0..kmax.

    The words of order o that the walk keeps are the set partitions of
    their o letters into at most q classes, sum_{b <= min(q, o)} S(o, b)
    with S the Stirling numbers of the second kind.  The root pushes one
    row, and each kept word of order o >= 2 two more: 1 + 2 sum_{o=2..k}.
    The closing forward edges are read as corners, without rows.
    """
    q = len(two_vertex_edges(graph)[1])
    stirling, rows = [1], 0  # S(o, b) for b = 0..min(q, o), at o = 0
    for k in range(kmax + 1):
        if k:
            last = stirling + [0]
            stirling = [b * last[b] + (last[b - 1] if b else 0)
                        for b in range(min(q, k) + 1)]
            rows += 1 if k == 1 else 2 * sum(stirling)
        yield k, rows


def omega_matrix_moments(graph: Graph, kmax: int) -> list[float]:
    """Normalized moments of the q x q matrix of length-2 loops, orders 1..kmax.

    For the two-vertex graph with q parallel edges, the doubled-edge
    paths based at the odd vertex form a q x q matrix; its moments in
    normalized-trace-of-power form, divided by the jump size, match the
    non-crossing sums of rate mu2(even)/(mu2(odd) q).

    With f_i the edges out of the odd vertex w and r_i their reverses,
    entry (i, j) is the path f_i r_j, so the trace of the k-th power sums
    tau over the loops f_{i_0} r_{i_1} f_{i_1} ... f_{i_{k-1}} r_{i_k} of
    the closed words, i_k = i_0.  The q edges are interchangeable, so a
    loop's trace depends only on which letters of its word are equal:
    the walk keeps one word per relabelling, its letters numbered by
    first occurrence, and counts its corner q (q-1) ... (q-b+1) times for
    its b distinct letters.  Read from its end, the loop of a word is a
    suffix of its extensions' loops, so the kept words are walked depth
    first on one :class:`~graphfree.gralg.FaceStack`: the root pushes
    r_0 (the closing letter is 0), and each order reads the corner of
    the closing f_0 without its row, then pushes f_j and its tied r_j
    for the next order, j a used letter or the next unused one.  That is
    :func:`matrix_moment_rows` rows in all, one per distinct suffix of
    the kept loops, and no path or element is built.  Every loop
    alternates w and v, so tau = mu2(w) F / (mu(v) mu(w))^k, and the
    moment over jump^k is the corner sum over q (q mu2(w))^k; the stack
    divides each face weight by q mu2(w), so no power of it underflows.
    """
    if kmax < 1:
        return []
    w, forward = two_vertex_edges(graph)
    q = len(forward)
    back = [graph.erev[f] for f in forward]
    faces = FaceStack(graph, q * graph.mu2[w])
    closing = forward[0]
    # classes[b]: the words a kept word with b distinct letters stands for
    classes = [1.0]
    for b in range(min(q, kmax)):
        classes.append(classes[-1] * (q - b))
    sums = [0.0] * (kmax + 1)

    def grow(order, used):
        sums[order] += classes[used] * faces.corner_with(closing)
        if order == kmax:
            return
        for j in range(used + (used < q)):
            faces.push(forward[j], back[j])
            grow(order + 1, used + (j == used))
            faces.pop()
            faces.pop()

    faces.push(back[0])
    grow(1, 1)
    return [s / q for s in sums[1:]]
