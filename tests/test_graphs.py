import ast
import copy
import gc
import importlib
import json
import math
import pickle
import pkgutil
import re
import weakref
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfree
from graphfree.graphs import (EVEN, ODD, Graph, GraphError, Path, build_graph,
                              connected_components, delta_v, enumerate_paths,
                              graph_from_spec, iter_paths, line_graph, named_graph,
                              pf_weighting, star_graph, two_vertex_graph, vertex_path,
                              _paths)

SQ2 = math.sqrt(2.0)


def test_build_a2_reversal_pair():
    g = build_graph([("v", EVEN, 0.5), ("w", ODD, 0.5)], [("v", "w", 1)])
    assert len(g.estart) == 2  # directed edges
    assert g.erev == (1, 0)
    assert g.estart == (0, 1) and g.efinish == (1, 0)
    # even-to-odd direction listed first
    assert g.parity[g.estart[0]] == EVEN


def test_build_k14_counts():
    g = star_graph(4)
    assert len(g.vertices_of_parity(ODD)) == 1
    assert len(g.vertices_of_parity(EVEN)) == 4
    assert len(g.estart) == 8  # directed edges


def test_build_rejects_equal_parity_edge():
    with pytest.raises(GraphError):
        build_graph([("a", EVEN), ("b", EVEN)], [("a", "b", 1)])


def test_build_rejects_duplicates_and_bad_weights():
    with pytest.raises(GraphError):
        build_graph([("a", EVEN), ("a", ODD)], [])
    with pytest.raises(GraphError):
        build_graph([("a", EVEN, -1.0), ("b", ODD, 2.0)], [("a", "b", 1)])
    with pytest.raises(GraphError):
        build_graph([("a", EVEN, 1.0), ("b", ODD)], [("a", "b", 1)])


def test_weights_normalized():
    g = build_graph([("a", EVEN, 2.0), ("b", ODD, 1.0)], [("a", "b", 1)])
    assert g.mu2 == pytest.approx((2 / 3, 1 / 3))


def test_pf_a2():
    g, delta = pf_weighting(build_graph([("v", EVEN), ("w", ODD)],
                                        [("v", "w", 1)]))
    assert g.mu2 == pytest.approx((0.5, 0.5), abs=1e-12)
    assert delta == pytest.approx(1.0, abs=1e-11)


def test_pf_a3_closed_form():
    g, delta = pf_weighting(build_graph(
        [("v1", EVEN), ("w", ODD), ("v2", EVEN)],
        [("v1", "w", 1), ("w", "v2", 1)]))
    assert delta == pytest.approx(SQ2, abs=1e-11)
    assert g.mu2[0] == pytest.approx(1 / (2 + SQ2), abs=1e-11)
    assert g.mu2[1] == pytest.approx(SQ2 / (2 + SQ2), abs=1e-11)
    assert g.mu2[2] == pytest.approx(1 / (2 + SQ2), abs=1e-11)


def test_pf_star_eigen_oracle():
    # closed form, no eigensolver: on K(1, n) the PF eigenvector is sqrt(n)
    # at the hub and 1 at each leaf, with eigenvalue sqrt(n)
    for n in (2, 3, 4, 7):
        g, delta = pf_weighting(build_graph(
            [("c", ODD)] + [(f"l{i}", EVEN) for i in range(n)],
            [("c", f"l{i}", 1) for i in range(n)]))
        leaf = 1 / (n + math.sqrt(n))
        assert delta == pytest.approx(math.sqrt(n), abs=1e-12)
        assert g.mu2[0] == pytest.approx(math.sqrt(n) * leaf, abs=1e-12)
        assert g.mu2[1:] == pytest.approx([leaf] * n, abs=1e-12)


def test_pf_line_closed_form():
    # A_n: the PF eigenvector is sin(k pi/(n+1)) at the k-th vertex,
    # k = 1..n, with eigenvalue 2 cos(pi/(n+1))
    for n in range(2, 10):
        g, delta = pf_weighting(build_graph(
            [(f"v{k}", EVEN if k % 2 else ODD) for k in range(1, n + 1)],
            [(f"v{k}", f"v{k + 1}", 1) for k in range(1, n)]))
        x = [math.sin(k * math.pi / (n + 1)) for k in range(1, n + 1)]
        assert delta == pytest.approx(2 * math.cos(math.pi / (n + 1)), abs=1e-12)
        assert g.mu2 == pytest.approx([w / sum(x) for w in x], abs=1e-12)


def test_pf_delta_v_constant():
    for make in (lambda: line_graph(4), lambda: star_graph(3),
                 lambda: two_vertex_graph(2)):
        g = make()
        a = g.adjacency()
        delta = max(np.linalg.eigvalsh(a))
        for v in range(g.n_vertices):
            assert delta_v(g, v) == pytest.approx(delta, abs=1e-9)


def _pf_catalogue():
    for spec in sorted((FilePath(__file__).parent.parent / "graphs").glob("*.graph")):
        record = json.loads(spec.read_text())
        for v in record["vertices"]:
            v.pop("weight2", None)
        yield spec.name, graph_from_spec(record)[0]
    for name in ("a2", "a3", "a4", "k1_2", "k1_3", "k1_4", "dbl", "fork"):
        yield name, named_graph(name)


def test_pf_local_index_is_the_eigenvalue_to_rounding():
    # delta(v) = sum_{v->w} mu2(w)/mu2(v) reads the weighting against the
    # returned eigenvalue at every vertex, an eigen-residual in relative form
    for name, g in _pf_catalogue():
        h, delta = pf_weighting(g)
        dev = max(abs(delta_v(h, v) - delta) for v in range(h.n_vertices))
        assert dev <= 1e-13, name


def test_pf_disconnected_rejected():
    g = build_graph([("a", EVEN), ("b", ODD), ("c", EVEN)], [("a", "b", 1)])
    with pytest.raises(GraphError):
        pf_weighting(g)


def test_delta_v_examples():
    g = line_graph(3)
    assert delta_v(g, "v1") == pytest.approx(SQ2, abs=1e-9)
    g2 = build_graph([("v", EVEN, 2 / 3), ("w", ODD, 1 / 3)], [("v", "w", 1)])
    assert delta_v(g2, "v") == pytest.approx(0.5)
    g3 = build_graph([("v", EVEN, 0.5), ("w", ODD, 0.25), ("u", EVEN, 0.25)],
                     [("v", "w", 1)])
    assert delta_v(g3, "u") == 0.0


def test_path_lists_keep_no_graph_alive():
    # a path list depends on the edge structure alone: it holds no graph,
    # and graphs of one structure share it
    g = named_graph("dbl")
    ref = weakref.ref(g)
    enumerate_paths(g, None, 5, None)
    del g
    gc.collect()
    assert ref() is None
    verts = [("a", EVEN, 1.0), ("b", ODD, 2.0), ("c", EVEN, 3.0)]
    edges = [("a", "b", 2), ("b", "c", 1)]
    g1 = build_graph(verts, edges)
    g2 = g1.with_mu2([0.5, 0.25, 0.25])
    before = _paths.cache_info()
    assert enumerate_paths(g1, None, 9, None) is enumerate_paths(g2, None, 9, None)
    after = _paths.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)


def test_enumerate_paths_examples(a2, a3):
    assert len(enumerate_paths(a2, "v0", 2, "v0")) == 1
    assert len(enumerate_paths(a3, "v0", 4, "v0")) == 2
    assert enumerate_paths(a3, "v0", 3, "v2") == []


def test_path_counts_match_adjacency_powers(battery):
    for g in battery.values():
        a = g.adjacency()
        for n in range(5):
            an = np.linalg.matrix_power(a, n)
            for u in range(g.n_vertices):
                for x in range(g.n_vertices):
                    assert len(enumerate_paths(g, u, n, x)) == int(round(an[u, x]))


def test_paths_deterministic_and_reversal(a3):
    paths = enumerate_paths(a3, None, 4, None)
    assert paths == enumerate_paths(a3, None, 4, None)
    assert len(set(paths)) == len(paths)
    for p in paths:
        r = p.reversed_in(a3)
        assert r.start == p.finish and r.finish == p.start
        assert r.reversed_in(a3) == p


def test_iter_paths_yields_the_list_one_at_a_time(battery):
    # the paths of enumerate_paths in its order, with no list memoized
    for g in battery.values():
        for n in range(6):
            for s, f in ((None, None), (0, None), (None, 0), (0, 0)):
                want = enumerate_paths(g, s, n, f)
                before = _paths.cache_info()
                assert list(iter_paths(g, s, n, f)) == want
                assert _paths.cache_info() == before
        with pytest.raises(GraphError):
            iter_paths(g, None, -1)


def _drop_edge_pair(path, i):
    """The path without edges i and i+1 (1-based); valid when v_{i-1} = v_{i+1}."""
    return Path(path.vertices[:i] + path.vertices[i + 2:],
                path.edges[:i - 1] + path.edges[i + 1:])


def test_path_value_contract(a3):
    # equal paths reached by different routes compare and hash equal
    p = a3.path_from_vertices(["v0", "v1", "v2", "v1", "v0"])
    direct = Path(p.vertices, p.edges)
    routes = [
        p.segment(0, 2).concat(p.segment(2, 4)),
        p.segment(0, 4),
        p.reversed_in(a3).reversed_in(a3),
        _drop_edge_pair(a3.path_from_vertices(["v0", "v1", "v0", "v1", "v2", "v1", "v0"]), 2),
        Path(tuple(list(p.vertices)), tuple(list(p.edges))),
        pickle.loads(pickle.dumps(p)),
        copy.deepcopy(p),
    ]
    for q in routes:
        assert type(q) is Path
        assert q == p and hash(q) == hash(p) and q == direct
    assert p.segment(0, 0) == vertex_path(0)
    assert hash(p.segment(4, 4)) == hash(vertex_path(0))
    assert len({p, direct, *routes}) == 1
    assert p.segment(0, 2) != p.segment(2, 4)
    # parallel edges: same vertices, different paths
    dbl = two_vertex_graph(2)
    assert dbl.path(0, (0,)).vertices == dbl.path(0, (2,)).vertices
    assert dbl.path(0, (0,)) != dbl.path(0, (2,))
    with pytest.raises(AttributeError):
        p.vertices = (0,)
    with pytest.raises(AttributeError):
        p.edges = ()
    with pytest.raises(GraphError):
        Path((0, 1), ())
    with pytest.raises(GraphError):
        Path((0,), (0,))


def _induced(graph: Graph, keep: list[int], star=None):
    keep_set = set(keep)
    old_to_new = {v: i for i, v in enumerate(keep)}
    gamma = sum(graph.mu2[v] for v in keep)
    mu2 = [graph.mu2[v] / gamma for v in keep]
    estart, efinish, erev = [], [], []
    old_edges = [e for e in range(len(graph.estart))
                 if graph.estart[e] in keep_set and graph.efinish[e] in keep_set]
    emap = {e: i for i, e in enumerate(old_edges)}
    for e in old_edges:
        estart.append(old_to_new[graph.estart[e]])
        efinish.append(old_to_new[graph.efinish[e]])
        erev.append(emap[graph.erev[e]])
    new_star = old_to_new.get(star) if star is not None else None
    sub = Graph([graph.ids[v] for v in keep], [graph.parity[v] for v in keep],
                mu2, estart, efinish, erev, new_star)
    return sub, gamma


def subgraph_star(graph: Graph, w) -> tuple[Graph, float]:
    """Induced subgraph on the opposite-parity vertices plus w.

    The weighting is the renormalized restriction; the renormalization
    constant gamma (mass kept) is returned alongside.
    """
    i = graph.index(w)
    other = 1 - graph.parity[i]
    keep = sorted(set(graph.vertices_of_parity(other)) | {i})
    return _induced(graph, keep)


def connected_component(graph: Graph, v) -> tuple[Graph, float]:
    """Connected component of v with renormalized weights, plus gamma."""
    i = graph.index(v)
    for comp in connected_components(graph):
        if i in comp:
            star = graph.star if graph.star in comp else None
            return _induced(graph, comp, star=star)
    raise GraphError(f"unknown vertex {v!r}")


def test_subgraph_star_k12():
    g = star_graph(2)
    sub, gamma = subgraph_star(g, "c")
    assert gamma == pytest.approx(1.0)
    assert sub.n_vertices == g.n_vertices and sub.n_edges == g.n_edges


def test_component_weights():
    g = build_graph(
        [("v1", EVEN, 0.3), ("w", ODD, 0.4), ("v2", EVEN, 0.2),
         ("u", EVEN, 0.1)],
        [("v1", "w", 1), ("w", "v2", 1)])
    comp, gamma = connected_component(g, "w")
    assert gamma == pytest.approx(0.9)
    assert comp.n_vertices == 3
    assert sum(comp.mu2) == pytest.approx(1.0)
    assert len(connected_components(g)) == 2


def test_subgraph_star_isolated_hub():
    g = build_graph([("v", EVEN, 0.5), ("w", ODD, 0.3), ("x", ODD, 0.2)],
                    [("v", "w", 1)])
    sub, _ = subgraph_star(g, "x")
    assert sub.n_edges == 0


def test_graph_spec_roundtrip_and_rejection():
    record = {"vertices": [{"id": "v", "parity": "even", "weight2": 0.5},
                           {"id": "w", "parity": "odd", "weight2": 0.5}],
              "edges": [{"u": "v", "v": "w", "mult": 2}]}
    g, pf_requested = graph_from_spec(record)
    assert not pf_requested and g.n_edges == 2
    with pytest.raises(GraphError):
        graph_from_spec({"vertices": [], "edges": [], "extra": 1})
    with pytest.raises(GraphError):
        graph_from_spec({"vertices": [{"id": "v", "parity": "even",
                                       "color": "red"}], "edges": []})
    mixed = {"vertices": [{"id": "v", "parity": "even", "weight2": 0.5},
                          {"id": "w", "parity": "odd"}],
             "edges": [{"u": "v", "v": "w"}]}
    with pytest.raises(GraphError):
        graph_from_spec(mixed)


@pytest.mark.parametrize("vertex,parity", [(0, " Even "), (0, 0), (1, "ODD"), (1, 1.0)])
def test_graph_spec_names_parity_even_or_odd(vertex, parity):
    # each value once stood for the vertex's own parity (1.0 stored as a float)
    record = {"vertices": [{"id": "v", "parity": "even"}, {"id": "w", "parity": "odd"}],
              "edges": [{"u": "v", "v": "w"}]}
    record["vertices"][vertex]["parity"] = parity
    with pytest.raises(GraphError, match=re.escape(repr(parity))):
        graph_from_spec(record)
    with pytest.raises(GraphError):
        build_graph([("v", EVEN), ("w", 1.0)], [("v", "w", 1)])


def test_two_vertex_graph_takes_both_weights_or_neither():
    for weights in ((0.8,), (0.8, None), (None, 0.2)):
        with pytest.raises(GraphError):
            two_vertex_graph(2, *weights)
    assert two_vertex_graph(2).mu2 == (0.5, 0.5)
    assert two_vertex_graph(2, 0.8, 0.2).mu2 == pytest.approx((0.8, 0.2))


# values of the wrong JSON type for any field
_JUNK = st.sampled_from([None, True, 0, 2.5, "x", [], ["v"], {}, {"id": "v"}])
_SPEC_FAULTS = ["record", "list", "entry", "missing", "unknown", "id", "duplicate", "endpoint",
                "same-parity", "parity", "weight2", "some-weight2", "mult"]


@st.composite
def spec_records(draw):
    """Graph-spec records: a random bipartite multigraph, weighted or not,
    with up to two faults of the kinds a hand-written spec has."""
    n = draw(st.integers(1, 5))
    parity = [draw(st.sampled_from(["even", "odd"])) for _ in range(n)]
    weighted = draw(st.booleans())
    vertices = [{"id": f"x{i}", "parity": p} for i, p in enumerate(parity)]
    for v in vertices if weighted else []:
        v["weight2"] = draw(st.floats(1e-3, 1e3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if parity[u] != parity[v]]
    edges = [{"u": f"x{u}", "v": f"x{v}", "mult": draw(st.integers(1, 3))}
             for u, v in (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])]
    record = {"vertices": vertices, "edges": edges}
    for fault in draw(st.lists(st.sampled_from(_SPEC_FAULTS), max_size=2)):
        on_edges = fault in ("endpoint", "mult") or fault == "id" and draw(st.booleans())
        entries = edges if on_edges else vertices
        if not entries or not all(isinstance(x, dict) for x in entries):
            continue
        k = draw(st.integers(0, len(entries) - 1))
        entry = entries[k]
        if fault == "record":
            record = draw(_JUNK.filter(lambda x: not isinstance(x, dict)))
        elif fault == "list" and isinstance(record, dict):
            record[draw(st.sampled_from(["vertices", "edges"]))] = draw(
                _JUNK.filter(lambda x: not isinstance(x, list)))
        elif fault == "entry":
            entries[k] = draw(_JUNK)
        elif fault == "missing":
            where = draw(st.sampled_from([record, entry]))
            if isinstance(where, dict):
                where.pop(draw(st.sampled_from(sorted(where))))
        elif fault == "unknown":
            draw(st.sampled_from([record, entry]))["color"] = "red"
        elif fault == "id":
            entry[draw(st.sampled_from(["u", "v"])) if on_edges else "id"] = draw(_JUNK)
        elif fault == "duplicate":
            entry["id"] = "x1" if k == 0 else "x0"
        elif fault == "endpoint":
            entry[draw(st.sampled_from(["u", "v"]))] = "z"
        elif fault == "same-parity":
            w = draw(st.sampled_from([i for i in range(n) if parity[i] == parity[k]]))
            edges.append({"u": f"x{k}", "v": f"x{w}"})
        elif fault == "parity":
            entry["parity"] = draw(st.sampled_from([" Even ", "ODD", 0, 1, 1.0, True, None]))
        elif fault == "weight2":
            entry["weight2"] = draw(st.sampled_from(
                ["0.5", math.nan, math.inf, -math.inf, 0.0, -1.0, 0, True, 10 ** 400]))
        elif fault == "some-weight2" and n > 1:
            if weighted:
                del entry["weight2"]
            else:
                entry["weight2"] = 0.5
        elif fault == "mult":
            entry["mult"] = draw(st.sampled_from([0, -1, 1.0, 1.5, True, False, "2",
                                                  1_000_001, 10 ** 400]))
    return record


@given(record=spec_records())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_graph_from_spec_fuzz_builds_or_refuses(record):
    # every record builds a graph with int parities and unit mass, its
    # vertices read as the spec names them, or is refused with a
    # GraphError; nothing else escapes
    try:
        g, _ = graph_from_spec(copy.deepcopy(record))
    except GraphError:
        return
    assert all(type(p) is int and p in (EVEN, ODD) for p in g.parity)
    assert [(v["id"], v["parity"]) for v in record["vertices"]] == [
        (x, ("even", "odd")[p]) for x, p in zip(g.ids, g.parity)]
    assert math.fsum(g.mu2) == pytest.approx(1.0, abs=1e-9)


def test_graph_spec_pf_request():
    record = {"vertices": [{"id": "v", "parity": "even"},
                           {"id": "w", "parity": "odd"}],
              "edges": [{"u": "v", "v": "w", "mult": 1}]}
    g, pf_requested = graph_from_spec(record)
    assert pf_requested
    assert g.mu2 == pytest.approx((0.5, 0.5), abs=1e-11)


def test_every_memo_is_bounded():
    # the library's memos are functools.lru_cache wrappers with a finite
    # maxsize; a graph carries no cache of its own
    memos = []
    for info in pkgutil.iter_modules(graphfree.__path__):
        module = importlib.import_module(f"graphfree.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                memos.append(name)
                assert value.cache_parameters()["maxsize"] is not None, name
    assert {"_paths", "tau_loop", "_suffix_transform", "enumerate_nc", "_mobius_row"} <= set(memos)
    assert "_cache" not in Graph.__slots__
    assert not hasattr(two_vertex_graph(2), "_cache")


def _memo_bounds(sources: dict[str, str]):
    """Yield (module, line, bound) for every functools memo in the sources.

    sources maps a module's name to its text.  bound is the int maxsize
    of an ``lru_cache(...)`` call, given as a literal or as a name bound
    at the top of the module to an int literal (or imported there from a
    sibling module that binds it so).  It is None for anything else:
    ``maxsize=None``, a bare ``@lru_cache``, ``functools.cache``, a name
    bound to no int.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    ints = {name: {t.id: node.value.value for node in tree.body
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                   and type(node.value.value) is int
                   for t in node.targets if isinstance(t, ast.Name)}
            for name, tree in trees.items()}
    for name, tree in trees.items():
        known = dict(ints[name])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                known.update((a.asname or a.name, ints.get(node.module, {}).get(a.name))
                             for a in node.names)
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                for a in node.names:
                    if a.name in ("cache", "lru_cache"):
                        yield name, node.lineno, None  # a bare name hides what it memoizes
                continue
            if not (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                continue
            call = calls.get(id(node)) if node.attr == "lru_cache" else None
            args = [] if call is None else call.args + [k.value for k in call.keywords
                                                          if k.arg == "maxsize"]
            bound = args[0] if len(args) == 1 else None
            if isinstance(bound, ast.Constant):
                bound = bound.value if type(bound.value) is int else None
            elif isinstance(bound, ast.Name):
                bound = known.get(bound.id)
            else:
                bound = None
            yield name, node.lineno, bound


def test_every_lru_cache_has_a_finite_int_bound():
    # a scan of the source, nested memos included: every functools memo is
    # lru_cache with a positive int maxsize, a literal or a module constant
    src = FilePath(graphfree.__file__).parent
    sources = {f.stem: f.read_text() for f in sorted(src.glob("*.py"))}
    found = list(_memo_bounds(sources))
    assert len(found) >= 10
    for module, line, bound in found:
        assert type(bound) is int and bound > 0, f"{module}.py:{line}"


@pytest.mark.parametrize("text", [
    "import functools\n@functools.cache\ndef f(x): return x\n",
    "import functools\n@functools.lru_cache\ndef f(x): return x\n",
    "import functools\n@functools.lru_cache()\ndef f(x): return x\n",
    "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n",
    "import functools\nf = functools.lru_cache(lambda x: x)\n",
    "import functools\nN = None\n@functools.lru_cache(maxsize=N)\ndef f(x): return x\n",
    "import functools\n@functools.lru_cache(maxsize=2.5)\ndef f(x): return x\n",
    "import functools\ndef g():\n    @functools.cache\n    def f(x): return x\n",
    "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): return x\n",
    "import functools\nfrom .other import N\n@functools.lru_cache(maxsize=N)\ndef f(x): return x\n",
])
def test_memo_bound_scan_refuses_unbounded_memos(text):
    found = list(_memo_bounds({"mod": text, "other": "M = 8\n"}))
    assert found and any(bound is None for *_, bound in found)


def test_memo_bound_scan_reads_module_constants():
    text = ("import functools\nfrom .other import M\nN = 16\n"
            "@functools.lru_cache(maxsize=N)\ndef f(x): return x\n"
            "@functools.lru_cache(M)\ndef g(x): return x\n"
            "@functools.lru_cache(maxsize=4)\ndef h(x): return x\n")
    found = list(_memo_bounds({"mod": text, "other": "M = 8\n"}))
    assert [bound for *_, bound in found] == [16, 8, 4]


# Top-level functions and methods of src/graphfree that no other code there
# calls, each with the role that keeps it in the package.
UNCALLED_ALLOWED = {
    "Graph.path": "names a path by its edge ids, the one way to pick an edge of a "
                  "parallel pair; part of the package's API",
    "left_mult_norm_bound": "the paper's explicit bound on left multiplication, "
                            "kept as the upper side of the planned generator-norm checks",
    "psi": "the inverse transform; perfbench/tracing.py wraps it by name",
    "tau_pairing": "the one-diagram trace term; perfbench/tracing.py wraps it by name",
    "unit": "the identity of the graded picture, part of the package's API",
}


def _reads(node, bound=frozenset()):
    """Yield each name read under node, bare or as an attribute.

    A bare name bound in an enclosing function (a parameter, an
    assignment or loop target anywhere in it) is that function's
    variable, not a read of a top-level function, and is skipped.
    """
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        bound = bound | {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg) if a}
        bound |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, bound)


def _definitions(tree):
    """Yield (name, node) for each top-level function and each method of a
    top-level class, named ``Class.method``; dunders, which Python calls, aside."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{m.name}", m) for m in stmt.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _uncalled_functions(sources: dict[str, str]):
    """Yield (module, name) for each function or method (:func:`_definitions`) that no code loads.

    sources maps a module's name to its text.  A function counts as
    used when its name is read (:func:`_reads`) anywhere in the sources
    outside its own definition (decorators included), and a method when
    an attribute of its name is; the package's ``__init__``, which only
    re-exports, is not searched.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):  # each method apart, so it skips its own name
                parts = [*stmt.body, *stmt.decorator_list, *stmt.bases,
                         *(k.value for k in stmt.keywords)]
            for part in parts:
                owner = part.name if isinstance(part, ast.FunctionDef) else None
                used.update(name for name in _reads(part) if name != owner)
    for module, tree in trees.items():
        for name, _ in _definitions(tree):
            if name.rpartition(".")[2] not in used:
                yield module, name


def test_every_function_has_a_caller_in_the_package():
    # code that only tests call, methods included, lives in the tests; the
    # allowlist names the exceptions, and every name on it must still be
    # uncalled
    src = FilePath(graphfree.__file__).parent
    sources = {f.stem: f.read_text() for f in sorted(src.glob("*.py"))}
    uncalled = dict((name, module) for module, name in _uncalled_functions(sources))
    assert uncalled.keys() == UNCALLED_ALLOWED.keys(), uncalled
    assert sum(text.count("\ndef ") for text in sources.values()) > 100


@pytest.mark.parametrize("text", [
    "def f():\n    return 1\n",
    "def f(n):\n    return f(n - 1) if n else 0\n",
    "import functools\n@functools.lru_cache(maxsize=8)\ndef f(x):\n    return x\n",
])
def test_uncalled_scan_finds_a_function_used_only_by_itself(text):
    sources = {"mod": text, "__init__": "from .mod import f\n__all__ = ['f']\n"}
    assert list(_uncalled_functions(sources)) == [("mod", "f")]
    sources["other"] = "from . import mod\n\ndef g():\n    return mod.f\n"
    assert list(_uncalled_functions(sources)) == [("other", "g")]


def test_uncalled_scan_finds_a_method_used_only_by_itself():
    text = ("class C:\n    def __init__(self):\n        self.x = 0\n"
            "    def m(self, n):\n        return self.m(n - 1) if n else 0\n"
            "    def k(self):\n        return self.x\n"
            "def f():\n    return C().k()\n")
    sources = {"mod": text, "__init__": "from .mod import C, f\n"}
    assert list(_uncalled_functions(sources)) == [("mod", "C.m"), ("mod", "f")]
    sources["other"] = "from . import mod\n\ndef g(c):\n    return c.m(2) + mod.f()\n"
    assert list(_uncalled_functions(sources)) == [("other", "g")]


@pytest.mark.parametrize("reader", [
    "def g(f):\n    return f\n",
    "def g():\n    f = 2\n    return f\n",
    "def g(xs):\n    for f in xs:\n        print(f)\n",
    "def g():\n    return lambda f: f\n",
], ids=["parameter", "assignment", "loop-target", "lambda-parameter"])
def test_uncalled_scan_ignores_names_bound_in_the_reader(reader):
    # a local variable named like a top-level function does not call it
    sources = {"mod": "def f():\n    return 1\n", "other": reader,
               "__init__": "from .mod import f\n"}
    assert sorted(_uncalled_functions(sources)) == [("mod", "f"), ("other", "g")]
    sources["other"] += "\ndef h():\n    return f()\n"
    assert sorted(_uncalled_functions(sources)) == [("other", "g"), ("other", "h")]


# The work budgets, each assigned once, in the module of the count it bounds.
BUDGETS = {"GRAM_MAX_PAIRS": "falg", "TRACE_MAX_LOOPS": "falg", "TRACE_MAX_WORK": "falg",
           "MATRIX_MOMENTS_MAX_ROWS": "cumulants", "FREENESS_MAX_EXTENSIONS": "cumulants",
           "CUMULANTS_MAX_PARTITIONS": "cumulants"}


def _budget_breaches(text: str, helper: str = "_refuse_over"):
    """Yield (line, name) for each work-budget check in text made outside helper.

    A budget is a name with ``_MAX_`` in it, bare or as an attribute, and
    may be read only as a whole argument of a call to helper, and never
    assigned: it lives beside its count.  A raise whose message says
    "more than" is an over-budget refusal, and may only come from inside
    helper.
    """
    tree = ast.parse(text)
    as_args = {id(arg) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == helper
               for arg in (*node.args, *(k.value for k in node.keywords))}
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == helper
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", ""))
        if ("_MAX_" in name and isinstance(node.ctx, ast.Load)
                and id(node) not in as_args):
            yield node.lineno, name
        if "_MAX_" in name and isinstance(node.ctx, ast.Store):
            yield node.lineno, f"{name} assigned"
        if (isinstance(node, ast.Raise) and node.exc is not None
                and id(node) not in inside and "more than" in ast.unparse(node.exc)):
            yield node.lineno, "raise"


def _budget_owners(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each of BUDGETS with the modules that assign it, once per assignment."""
    owners = {name: [] for name in BUDGETS}
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in owners):
                owners[node.id].append(module)
    return owners


def test_cli_refuses_work_through_one_helper():
    # every budget of cli.py is read as an argument of _refuse_over, none is
    # assigned there, and only _refuse_over raises an over-budget refusal;
    # each budget is assigned once in the package, beside its count
    src = FilePath(graphfree.__file__).parent
    text = (src / "cli.py").read_text()
    assert list(_budget_breaches(text)) == []
    read = {getattr(node, "id", getattr(node, "attr", "")) for node in ast.walk(ast.parse(text))
            if isinstance(getattr(node, "ctx", None), ast.Load)}
    assert {name for name in read if "_MAX_" in name} == BUDGETS.keys()
    sources = {f.stem: f.read_text() for f in sorted(src.glob("*.py"))}
    assert _budget_owners(sources) == {name: [module] for name, module in BUDGETS.items()}


@pytest.mark.parametrize("change", ["twice", "never"])
def test_budget_owner_scan_finds_a_budget_not_assigned_once(change):
    sources = {"falg": "GRAM_MAX_PAIRS = 2\nTRACE_MAX_LOOPS = 2\nTRACE_MAX_WORK = 2\n",
               "cumulants": "MATRIX_MOMENTS_MAX_ROWS = 2\nFREENESS_MAX_EXTENSIONS = 2\n"
                            "CUMULANTS_MAX_PARTITIONS = 2\n"}
    assert _budget_owners(sources) == {name: [module] for name, module in BUDGETS.items()}
    if change == "twice":
        sources["cli"] = "GRAM_MAX_PAIRS = 3\n"
    else:
        sources["falg"] = sources["falg"].replace("TRACE_MAX_WORK = 2\n", "")
    assert _budget_owners(sources) != {name: [module] for name, module in BUDGETS.items()}


@pytest.mark.parametrize("text", [
    "def f(n):\n    if n > GRAM_MAX_PAIRS:\n        raise CliError('too many pairs')\n",
    "def f(n):\n    raise CliError(f'{n} pairs, more than the budget')\n",
    "def f(n):\n    _refuse_over([('', n)], 2 * TRACE_MAX_WORK, 'steps', 'trace', 'fix')\n",
    "def f(n):\n    return n > cumulants.CUMULANTS_MAX_PARTITIONS\n",
    "def g(n):\n    _refuse_over([], TRACE_MAX_WORK, 's', 'd', 'f')\n"
    "    raise CliError(f'{n} is more than allowed')\n",
    "TRACE_MAX_WORK = 500_000_000\n",
], ids=["bare-compare", "own-message", "budget-in-expression", "attribute-read",
        "raise-beside-the-helper", "assigned"])
def test_budget_scan_finds_a_refusal_outside_the_helper(text):
    helper = ("def _refuse_over(counts, budget, unit, doing, fix):\n"
              "    for where, units in counts:\n        if units > budget:\n"
              "            raise CliError(f'{doing}: more than {budget} {unit}')\n")
    assert list(_budget_breaches(helper)) == []
    assert list(_budget_breaches(helper + text))
