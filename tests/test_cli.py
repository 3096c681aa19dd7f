import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfree import cli, cumulants, factors, falg
from graphfree.cli import main
from graphfree.graphs import delta_v, enumerate_paths, graph_from_spec, named_graph
from graphfree.gralg import FaceStack, tau_loop, tau_path
from graphfree.verification import SUITES

A2_SPEC = """{
  "vertices": [
    {"id": "v", "parity": "even", "weight2": 0.5},
    {"id": "w", "parity": "odd", "weight2": 0.5}
  ],
  "edges": [{"u": "v", "v": "w", "mult": 1}]
}"""


def _refuse_work(monkeypatch, owner, *names):
    """Make each named worker of owner fail the test if a command reaches it."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in names:
        monkeypatch.setattr(owner, name, refuse)


@pytest.fixture
def a2_file(tmp_path):
    f = tmp_path / "a2.graph"
    f.write_text(A2_SPEC)
    return str(f)


def test_trace_loop(a2_file, capsys):
    assert main(["trace", a2_file, "--loop", "v,w,v"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out


def test_trace_all_loops_json(a2_file, capsys):
    assert main(["trace", a2_file, "--all-loops", "--max-len", "4",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    vals = {row["loop"]: row["pairing_trace"] for row in data["trace"]}
    assert vals["v->w->v"] == pytest.approx(0.5)
    assert vals["v->w->v->w->v"] == pytest.approx(1.0)


def test_trace_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text('{"vertices": [], "edges": [], "junk": true}')
    assert main(["trace", str(f), "--loop", "v,w,v"]) == 2
    assert "error" in capsys.readouterr().err


def test_trace_loop_has_no_degree_cap(a2_file, capsys):
    assert main(["trace", a2_file, "--loop", "v,w,v,w,v"]) == 0
    capsys.readouterr()
    # length 20, past the old default cap of 16: Catalan(10)/2 on both routes
    loop = ",".join(["v", "w"] * 10 + ["v"])
    assert main(["trace", a2_file, "--loop", loop, "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["trace"][0]
    assert row["pairing_trace"] == pytest.approx(8398, rel=1e-12)
    assert row["transform_trace"] == pytest.approx(8398, rel=1e-12)


def test_trace_loop_across_parallel_edges_points_to_all_loops(capsys):
    # dbl joins v and w by two edges; a vertex list cannot pick one, and
    # --loop takes no edge ids, so the error names the edges and --all-loops
    assert main(["trace", "--named", "dbl", "--loop", "v,w,v"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "crosses the parallel edges v -> w" in captured.err
    assert "--all-loops" in captured.err and "give edge ids" not in captured.err
    assert "Traceback" not in captured.err


def test_trace_refuses_too_many_loops(monkeypatch, capsys):
    _refuse_work(monkeypatch, cli, "_all_loop_traces")
    assert main(["trace", "--named", "k1_4", "--all-loops", "--max-len", "60"]) == 2
    err = capsys.readouterr().err
    assert "43693 up to length 14" in err and "Traceback" not in err


def test_trace_refuses_long_loops(monkeypatch, capsys):
    # both routes cost O(n^3) on a loop of length n, so --loop refuses by
    # n^3; --all-loops builds one row per distinct suffix on each stack and
    # refuses by 2 l^2 per path of length l, counted from A^l before any
    # loop is built, at the first length past the budget, with the count
    _refuse_work(monkeypatch, cli, "_all_loop_traces", "tau_path")
    _refuse_work(monkeypatch, falg, "t_phi_path")
    assert main(["trace", "--named", "a2", "--all-loops", "--max-len", "19998"]) == 2
    err = capsys.readouterr().err
    assert "500780644 up to length 721" in err and "Traceback" not in err
    loop = ",".join(["v0", "v1"] * 400 + ["v0"])
    assert main(["trace", "--named", "a2", "--loop", loop]) == 2
    err = capsys.readouterr().err
    assert "length 800" in err and "512000000" in err and "Traceback" not in err
    monkeypatch.undo()
    # no length cap: k1_4 loops of length 48 and 100 are traced, and the
    # routes agree relative to the trace
    rng = np.random.default_rng(48)
    for n in (48, 100):
        loop = ",".join(f"c,l{k}" for k in rng.integers(4, size=n // 2)) + ",c"
        assert main(["trace", "--named", "k1_4", "--loop", loop, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["trace"][0]
        assert row["loop"].count("->") == n
        assert row["transform_trace"] == pytest.approx(row["pairing_trace"], rel=1e-12)
    # the a2 loop of length 40 has a trace of about 3.3e9 and passes: the
    # routes are judged relative to the size of the trace
    loop = ",".join(["v0", "v1"] * 20 + ["v0"])
    assert main(["trace", "--named", "a2", "--loop", loop, "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["trace"][0]
    assert row["transform_trace"] == pytest.approx(row["pairing_trace"], rel=1e-12)
    assert main(["trace", "--named", "a3", "--all-loops", "--max-len", "18"]) == 0
    # one row per distinct suffix: the a2 loops to length 400 are traced,
    # where n^3 per loop refused them at length 212
    capsys.readouterr()
    assert main(["trace", "--named", "a2", "--all-loops", "--max-len", "400", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["trace"]
    assert len(rows) == 402
    assert all(r["transform_trace"] == pytest.approx(r["pairing_trace"], rel=1e-12)
               for r in rows)


@pytest.fixture
def point_file(tmp_path):
    f = tmp_path / "point.graph"
    f.write_text('{"vertices": [{"id": "v", "parity": "even", "weight2": 1.0}], '
                 '"edges": []}')
    return str(f)


def test_trace_all_loops_stops_at_zero_power(point_file, capsys):
    # without edges A is zero, so no loop is longer than 0 and neither the
    # count nor the enumeration walks the lengths up to --max-len
    assert main(["trace", point_file, "--all-loops", "--max-len", "100000000",
                 "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["trace"]
    assert [row["loop"] for row in rows] == ["v"]
    assert rows[0]["pairing_trace"] == pytest.approx(1.0)


def test_unread_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--named", "a3", "--max-degree", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace", "--named", "a3", "--all-loops", "--max-len", "-3"],
    ["moments", "--named", "k1_2", "--matrix-moments", "-2"],
    ["moments", "--named", "k1_2", "--matrix-moments", "0"],
    ["trace", "--named", "a3", "--loop", "v0,v1,v0", "--tol", "-1"],
    ["trace", "--named", "a3", "--loop", "v0,v1,v0", "--tol", "nan"],
    ["freeness", "--named", "fork", "--seed", "-1"],
    ["verify", "--suite", "factor", "--seed", "-1"],
    ["gram", "--named", "a3", "--max-degree", "-1"],
], ids=["max-len-negative", "matrix-moments-negative", "matrix-moments-zero",
        "tol-negative", "tol-nan", "freeness-seed-negative", "verify-seed-negative",
        "max-degree-negative"])
def test_out_of_range_flag_is_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: invalid" in err and "Traceback" not in err


def test_factor_named(capsys):
    assert main(["factor", "--named", "k1_4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"].startswith("LF(")
    assert data["atoms"] == []


def test_factor_two_vertex(a2_file, capsys):
    assert main(["factor", a2_file]) == 0
    assert "M2(LZ)" in capsys.readouterr().out


def test_cumulants_command(capsys):
    assert main(["cumulants", "--named", "a3",
                 "--tuple", "v0,v1,v2;v2,v1,v0"]) == 0
    out = capsys.readouterr().out
    assert "difference" in out


def test_cumulants_refuses_oversized_tuple(monkeypatch, capsys):
    # NC(12) has 208,012 partitions, NC(8) 1,430
    loop = "v0,v1,v0"
    _refuse_work(monkeypatch, cumulants, "kappa_mobius", "kappa_starry")
    assert main(["cumulants", "--named", "a3", "--tuple", ";".join([loop] * 12)]) == 2
    err = capsys.readouterr().err
    assert "208012" in err and "Traceback" not in err
    # Catalan(8000) has ~4,800 digits, past Python's int-to-str limit
    assert main(["cumulants", "--named", "a3", "--tuple", ";".join([loop] * 8000)]) == 2
    err = capsys.readouterr().err
    assert "8000-tuple" in err and "208012" in err and "Traceback" not in err
    monkeypatch.undo()
    assert main(["cumulants", "--named", "a3", "--tuple", ";".join([loop] * 8)]) == 0


def test_freeness_command(capsys):
    assert main(["freeness", "--named", "fork", "--max-order", "3",
                 "--tol", "1e-10", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_freeness_passing_certificate_names_no_witness(capsys):
    # its largest mixed cumulant is rounding (~1e-15), not a counterexample
    assert main(["freeness", "--named", "a4", "--max-order", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True and data["witness"] == ""


def test_freeness_refuses_oversized_work(monkeypatch, capsys):
    # fork: 776,861 extensions to order 7, 6,755,691 to 8, 59,975,143 to 9
    _refuse_work(monkeypatch, cumulants, "freeness_certificate")
    assert main(["freeness", "--named", "fork", "--max-order", "12"]) == 2
    err = capsys.readouterr().err
    assert "at least 59975143 up to order 9" in err and "Traceback" not in err


def test_freeness_stops_at_zero_power(point_file, capsys):
    # no generators: neither the work count nor the certificate walks the
    # orders up to --max-order
    assert main(["freeness", point_file, "--max-order", "100000000",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True and data["n_tuples"] == 0


def test_freeness_passes_exact_zeros_at_tol_zero(capsys):
    # every mixed cumulant of d6 at order 2 and every diagram deviation is
    # an exact zero, which lies within --tol 0
    assert main(["freeness", str(Path(__file__).parent.parent / "graphs" / "d6.graph"),
                 "--max-order", "2", "--seed", "3", "--tol", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["max_mixed_cumulant"] == 0 and data["stp_max_dev"] == 0


def test_freeness_with_one_hub_walks_no_path(monkeypatch, capsys):
    # a3 has one odd vertex, so no tuple is mixed: the work guard charges
    # nothing for any order, and the certificate walks no path
    def refuse(*args):
        raise AssertionError("walked a path")

    monkeypatch.setattr(cumulants, "iter_paths", refuse)
    assert main(["freeness", "--named", "a3", "--max-order", "100000000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True and data["n_tuples"] == 0 and data["stp_checks"] == 20


def test_moments_matrix(capsys):
    assert main(["moments", "--named", "dbl", "--matrix-moments", "4",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix_moments"][0] == pytest.approx(data["pairing_sums"][0])


def test_moments_matrix_refuses_by_work(monkeypatch, capsys):
    # the face rows of the word tree are counted in closed form, so the
    # refusal comes before the walk: dbl (q = 2) to order 30 would push 4.3e9
    _refuse_work(monkeypatch, cumulants, "omega_matrix_moments")
    assert main(["moments", "--named", "dbl", "--matrix-moments", "30"]) == 2
    err = capsys.readouterr().err
    assert "4294967290 for the words of 2 edges" in err and "Traceback" not in err
    # q = 1 has few rows but one dense loop of length 2K, refused as trace
    # refuses it
    assert main(["moments", "--named", "a2", "--matrix-moments", "400"]) == 2
    err = capsys.readouterr().err
    assert "length 800" in err and "512000000" in err
    monkeypatch.undo()
    assert main(["moments", "--named", "dbl", "--matrix-moments", "5"]) == 0


@pytest.mark.parametrize("name,kmax", [("a3", 30), ("k1_4", 12)])
def test_moments_matrix_checks_the_shape_before_counting(monkeypatch, capsys, name, kmax):
    # no K runs on a graph of more than two vertices, so the row count reads
    # the shape first and reports it, not a count of rows for its edges
    _refuse_work(monkeypatch, cumulants, "omega_matrix_moments")
    assert main(["moments", "--named", name, "--matrix-moments", str(kmax)]) == 2
    err = capsys.readouterr().err
    assert "matrix moments need a two-vertex graph" in err
    assert "face rows" not in err and "Traceback" not in err


def test_moments_matrix_without_edges_is_input_error(tmp_path, capsys):
    f = tmp_path / "apart.graph"
    f.write_text('{"vertices": [{"id": "v", "parity": "even", "weight2": 0.5}, '
                 '{"id": "w", "parity": "odd", "weight2": 0.5}], "edges": []}')
    assert main(["moments", str(f), "--matrix-moments", "3"]) == 2
    err = capsys.readouterr().err
    assert "at least one edge" in err and "Traceback" not in err


def test_moments_tuple_refuses_by_work(monkeypatch, capsys):
    # the moment traces the composite loop, so --tuple refuses by n^3 of its
    # length as trace --loop does: 1,200 copies of v0,v1,v0 make length 2,400
    _refuse_work(monkeypatch, cumulants, "moment_phi")
    assert main(["moments", "--named", "a2", "--tuple",
                 ";".join(["v0,v1,v0"] * 1200)]) == 2
    err = capsys.readouterr().err
    assert "length 2400" in err and "13824000000" in err and "Traceback" not in err
    monkeypatch.undo()
    assert main(["moments", "--named", "a2", "--tuple", ";".join(["v0,v1,v0"] * 300),
                 "--json"]) == 0
    assert 0 < json.loads(capsys.readouterr().out)["moment"]["v0"] < float("inf")


@pytest.mark.parametrize("name,max_len", [("a3", 12), ("a4", 10), ("k1_4", 8), ("dbl", 8)])
def test_all_loops_walk_matches_the_per_loop_routes(capsys, name, max_len):
    # --all-loops grows the loops through their suffix tree; it prints the
    # loops of enumerate_paths in their order, with the values of tau_path
    # and t_phi_path, and traces no loop through the tau memo
    misses = tau_loop.cache_info().misses
    assert main(["trace", "--named", name, "--all-loops", "--max-len", str(max_len),
                 "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["trace"]
    assert tau_loop.cache_info().misses == misses
    g = named_graph(name)
    loops = [p for n in range(0, max_len + 1, 2) for v in range(g.n_vertices)
             for p in enumerate_paths(g, v, n, v)]
    assert [row["loop"] for row in rows] == ["->".join(g.ids[x] for x in p.vertices)
                                             for p in loops]
    for row, p in zip(rows, loops):
        assert row["pairing_trace"] == pytest.approx(tau_path(g, p), rel=1e-13, abs=0)
        assert row["transform_trace"] == pytest.approx(falg.t_phi_path(g, p), rel=1e-13, abs=0)


@pytest.mark.parametrize("name,max_len", [("a3", 14), ("k1_4", 8)])
def test_all_loop_work_bounds_the_multiply_adds(monkeypatch, name, max_len):
    # the estimate the guard charges, counted from A^l, bounds the
    # multiply-adds both stacks make in the walk: per push and per corner
    # read, one add per entry of the row below each partner
    adds = [0]

    def partner_adds(stack, e):
        rows, edges, back = stack.rows, stack.edges, stack._erev[e]
        return sum(len(rows[r - 1]) for r in rows[-1] if r and edges[r] == back)

    for kernel in (FaceStack, falg.GapStack):
        def push(self, *pushed, _push=kernel.push):
            for e in pushed:
                adds[0] += partner_adds(self, e)
                _push(self, e)

        def corner_with(self, e, _corner=kernel.corner_with):
            adds[0] += partner_adds(self, e)
            return _corner(self, e)

        monkeypatch.setattr(kernel, "push", push)
        monkeypatch.setattr(kernel, "corner_with", corner_with)
    g = named_graph(name)
    traced = cli._all_loop_traces(g, max_len)
    *_, (n, loops, steps) = cli._all_loop_work(g, max_len)
    assert n == max_len and loops == len(traced)
    assert 0 < adds[0] <= steps


def test_gram_command(capsys):
    assert main(["gram", "--named", "a2", "--max-degree", "4"]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_gram_refuses_oversized_work(monkeypatch, capsys):
    _refuse_work(monkeypatch, falg, "truncated_basis", "gram_blocks")
    assert main(["gram", "--named", "k1_3"]) == 2
    err = capsys.readouterr().err
    assert "2396950 up to degree 13" in err and "Traceback" not in err


@pytest.mark.parametrize("diagonal", [False, True], ids=["off-diagonal", "diagonal"])
def test_gram_fails_on_a_nan(monkeypatch, capsys, diagonal):
    real = falg.gram_blocks

    def one_nan(g, max_degree):
        entries = list(real(g, max_degree))
        at = next(i for i, (p, q, _) in enumerate(entries) if (p == q) == diagonal)
        p, q, _ = entries[at]
        entries[at] = (p, q, math.nan)
        return iter(entries)

    monkeypatch.setattr(falg, "gram_blocks", one_nan)
    assert main(["gram", "--named", "a3", "--max-degree", "4"]) == 1
    assert "passed: False" in capsys.readouterr().out


def test_spec_refuses_an_oversized_multiplicity(tmp_path, capsys):
    f = tmp_path / "huge.graph"
    f.write_text(json.dumps(_spec(edge_fields={"mult": 10 ** 12})))
    assert main(["factor", str(f)]) == 2
    err = capsys.readouterr().err
    assert str(10 ** 12) in err and "Traceback" not in err


def test_verify_fast(capsys):
    assert main(["verify", "--suite", "combinatorics", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


@pytest.mark.parametrize("suite", SUITES)
def test_verify_json_schema(capsys, suite):
    assert main(["verify", "--suite", suite, "--max-degree", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"suite", "passed", "failed", "ok", "suites", "checks"}
    assert data["ok"] is True
    assert [(t["suite"], t["checks"]) for t in data["suites"]] == [(suite, len(data["checks"]))]


def test_missing_graph_is_input_error(capsys):
    assert main(["trace", "--loop", "v,w,v"]) == 2


def _spec(vertex_fields=None, edge_fields=None):
    spec = json.loads(A2_SPEC)
    spec["vertices"][0].update(vertex_fields or {})
    spec["edges"][0].update(edge_fields or {})
    return spec


@pytest.mark.parametrize("spec", [
    _spec(edge_fields={"mult": "2"}),
    _spec(edge_fields={"mult": 1.7}),
    _spec(edge_fields={"mult": True}),
    _spec(edge_fields={"mult": 0}),
    _spec(edge_fields={"u": ["v"]}),
    _spec(vertex_fields={"weight2": "0.5"}),
    _spec(vertex_fields={"weight2": True}),
    _spec(vertex_fields={"weight2": float("nan")}),
    _spec(vertex_fields={"weight2": float("inf")}),
    _spec(vertex_fields={"id": ["a"]}),
    _spec(vertex_fields={"id": True}),
    _spec(vertex_fields={"id": 0}),
    _spec(vertex_fields={"parity": False}),
], ids=["mult-str", "mult-float", "mult-bool", "mult-zero", "endpoint-list",
        "weight2-str", "weight2-bool", "weight2-nan", "weight2-inf", "id-list", "id-bool",
        "id-int", "parity-bool"])
def test_bad_spec_is_input_error(tmp_path, capsys, spec):
    f = tmp_path / "bad.graph"
    f.write_text(json.dumps(spec))
    assert main(["trace", str(f), "--loop", "v,w,v"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_huge_cli_weights_normalize():
    argv = ["trace", "--named", "a2", "--loop", "v0,v1,v0", "--weights", "1e308,1e308"]
    assert main(argv) == 0


def test_huge_weights_normalize(tmp_path, capsys):
    spec = _spec()
    for v in spec["vertices"]:
        v["weight2"] = 1e308
    f = tmp_path / "huge.graph"
    f.write_text(json.dumps(spec))
    assert main(["trace", str(f), "--loop", "v,w,v", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trace"][0]["pairing_trace"] == pytest.approx(0.5)


GRAPH_SPECS = sorted((Path(__file__).parent.parent / "graphs").glob("*.graph"))


def test_graph_specs_present():
    assert len(GRAPH_SPECS) >= 5


@pytest.mark.parametrize("spec", GRAPH_SPECS, ids=lambda p: p.name)
def test_committed_graph_specs_run(spec, capsys):
    assert main(["factor", str(spec)]) == 0
    assert main(["trace", str(spec), "--all-loops", "--max-len", "6"]) == 0
    capsys.readouterr()


def _k1_3_hub_corner_parameter():
    # the single-hub route: hub corner LF(r) of K(1, 3), decompressed by mu2(hub)
    g = named_graph("k1_3")
    hub = g.index("c")
    leaves = [g.mu2[v] for v in range(g.n_vertices) if v != hub]
    [(r, _)] = factors.star_m1([1, 1, 1], leaves, g.mu2[hub]).diffuse
    return 1 + (r - 1) * g.mu2[hub] ** 2


# Coxeter numbers of the ADE specs; Haagerup's principal graph has
# delta^2 = (5 + sqrt 13) / 2
CATALOGUE = {"d4": 6, "d6": 10, "e6": 12, "e7": 18, "e8": 30, "haagerup": None}


@pytest.mark.parametrize("name,h", CATALOGUE.items())
def test_catalogue_index_and_parameter(name, h, capsys):
    spec = Path(__file__).parent.parent / "graphs" / f"{name}.graph"
    g, pf = graph_from_spec(json.loads(spec.read_text()))
    assert pf
    want = (5 + math.sqrt(13)) / 2 if h is None else 4 * math.cos(math.pi / h) ** 2
    for v in range(g.n_vertices):
        assert delta_v(g, v) ** 2 == pytest.approx(want, abs=1e-10)
    assert main(["factor", str(spec), "--json"]) == 0
    [(s, w)] = json.loads(capsys.readouterr().out)["diffuse"]
    assert s is not None and math.isfinite(s) and s > 1
    assert w == pytest.approx(1.0)
    if name == "d4":  # the same graph as k1_3
        assert s == pytest.approx(_k1_3_hub_corner_parameter(), abs=1e-12)


@st.composite
def bipartite_specs(draw):
    """Connected bipartite multigraph specs without weights: a random tree
    on up to 6 vertices plus extra edges, each of multiplicity 1 to 3."""
    n = draw(st.integers(2, 6))
    parity, edges = [0], {}
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        parity.append(1 - parity[parent])
        edges[parent, i] = draw(st.integers(1, 3))
    extra = [(u, v) for u in range(n) for v in range(u + 1, n)
             if parity[u] != parity[v] and (u, v) not in edges]
    if extra:
        for pair in draw(st.lists(st.sampled_from(extra), unique=True)):
            edges[pair] = draw(st.integers(1, 3))
    return {"vertices": [{"id": f"x{i}", "parity": ("even", "odd")[p]}
                         for i, p in enumerate(parity)],
            "edges": [{"u": f"x{u}", "v": f"x{v}", "mult": m}
                      for (u, v), m in edges.items()]}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@given(spec=bipartite_specs())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_factor_fuzz_pf_parameter(tmp_path_factory, spec):
    f = tmp_path_factory.getbasetemp() / "fuzz.graph"
    f.write_text(json.dumps(spec))
    code, out = _run_cli(["factor", str(f), "--json"])
    assert code == 0
    g, _ = graph_from_spec(spec)
    if g.n_edges >= 2:
        [(s, _)] = json.loads(out)["diffuse"]
        assert s is not None and math.isfinite(s) and s > 1
        delta = delta_v(g, 0)
        assert s == pytest.approx(1 + (delta - 1) * sum(x * x for x in g.mu2), abs=1e-9)
    spec["vertices"].append({"id": "lone", "parity": "even"})
    f.write_text(json.dumps(spec))
    assert _run_cli(["factor", str(f), "--json"])[0] == 2


def _exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


D4_SPEC = str(Path(__file__).parent.parent / "graphs" / "d4.graph")


@pytest.mark.parametrize("argv", [
    ["factor", "--named", "dbl", "--weights", "3,1", "--pf"],
    ["factor", D4_SPEC, "--named", "dbl"],
    ["factor", "--named", "dbl", D4_SPEC],
    ["trace", "--named", "a3", "--loop", "v0,v1,v0", "--all-loops"],
    ["moments", "--named", "dbl", "--tuple", "v,w,v", "--matrix-moments", "3"],
    ["factor"],
    ["trace", "--loop", "v,w,v"],
    ["trace", "--named", "a3"],
    ["moments", "--named", "dbl"],
    ["cumulants", "--named", "a3"],
], ids=["pf-and-weights", "file-and-named", "named-and-file", "loop-and-all-loops",
        "tuple-and-matrix-moments", "no-graph", "no-graph-for-trace", "no-loop",
        "no-moment-kind", "no-cumulant-tuple"])
def test_contradictory_or_missing_arguments_are_input_errors(capsys, argv):
    # nothing is silently dropped or defaulted: each case names its options
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# loops of length 2 on the fuzzed graphs (each valid on some of them), a
# longer path and an unknown vertex
_FUZZ_LOOPS = st.sampled_from(["v0,v1,v0", "v1,v0,v1", "v,w,v", "l0,c,l1", "v,w1,v",
                               "v0,v1,v2", "v2,v1,v0,v1", "x"])


def _either_or(draw, first, second):
    """One of two options, each alone most often, sometimes both or neither."""
    pick = draw(st.sampled_from(["first"] * 3 + ["second"] * 3 + ["both", "neither"]))
    return (first if pick in ("first", "both") else []) + (
        second if pick in ("second", "both") else [])


@st.composite
def cli_argvs(draw):
    """argv for trace, moments, cumulants, freeness, factor and gram on small
    graphs and capped sizes, with and without the conflicting options."""
    cmd = draw(st.sampled_from(["trace", "moments", "cumulants", "freeness", "factor",
                                "gram"]))
    named = draw(st.sampled_from(["a2", "a3", "k1_2", "dbl", "fork", "e9"]))
    argv = [cmd] + _either_or(draw, ["--named", named],
                              [str(draw(st.sampled_from(GRAPH_SPECS[:4])))])
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        argv += _either_or(draw, ["--pf"], ["--weights", ",".join(map(str, weights))])
    if cmd == "trace":
        argv += _either_or(draw, ["--loop", draw(_FUZZ_LOOPS)],
                           ["--all-loops", "--max-len", str(draw(st.integers(0, 6)))])
    elif cmd == "moments":
        argv += _either_or(draw, ["--tuple", draw(_FUZZ_LOOPS)],
                           ["--matrix-moments", str(draw(st.integers(0, 4)))])
    elif cmd == "cumulants":
        tup = ";".join(draw(st.lists(_FUZZ_LOOPS, min_size=1, max_size=4)))
        argv += _either_or(draw, ["--tuple", tup], [])
    elif cmd == "freeness":
        argv += ["--max-order", str(draw(st.integers(1, 4))),
                 "--seed", str(draw(st.integers(0, 3)))]
    elif cmd == "gram":
        argv += ["--max-degree", str(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["0", "1e-9", "-1"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(argv=cli_argvs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_fuzz_exits_0_1_or_2(argv):
    # main returns 0, 1 or 2; the only exception it lets out is argparse's SystemExit(2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            assert main(argv) in (0, 1, 2), argv
        except SystemExit as exc:
            assert exc.code == 2, argv
    assert "Traceback" not in err.getvalue(), argv
