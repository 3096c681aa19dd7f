import json

import numpy as np
import pytest

from graphfree.cli import main
from graphfree.verification import SUITES

A2_SPEC = """{
  "vertices": [
    {"id": "v", "parity": "even", "weight2": 0.5},
    {"id": "w", "parity": "odd", "weight2": 0.5}
  ],
  "edges": [{"u": "v", "v": "w", "mult": 1}]
}"""


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


def test_trace_refuses_too_many_loops(capsys):
    assert main(["trace", "--named", "k1_4", "--all-loops", "--max-len", "60"]) == 2
    err = capsys.readouterr().err
    assert "43693 up to length 14" in err and "Traceback" not in err


def test_trace_refuses_long_loops(capsys):
    # both routes cost O(n^3) on a loop of length n, so trace refuses by the
    # sum of n^3 over its loops, counted from diag(A^n) before any loop is
    # built: --all-loops at the first length past the budget, with the count
    assert main(["trace", "--named", "a2", "--all-loops", "--max-len", "19998"]) == 2
    err = capsys.readouterr().err
    assert "514563856 up to length 212" in err and "Traceback" not in err
    loop = ",".join(["v0", "v1"] * 400 + ["v0"])
    assert main(["trace", "--named", "a2", "--loop", loop]) == 2
    err = capsys.readouterr().err
    assert "length 800" in err and "512000000" in err and "Traceback" not in err
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


def test_cumulants_refuses_oversized_tuple(capsys):
    # NC(12) has 208,012 partitions, NC(8) 1,430
    loop = "v0,v1,v0"
    assert main(["cumulants", "--named", "a3", "--tuple", ";".join([loop] * 12)]) == 2
    err = capsys.readouterr().err
    assert "208012" in err and "Traceback" not in err
    assert main(["cumulants", "--named", "a3", "--tuple", ";".join([loop] * 8)]) == 0
    capsys.readouterr()
    # Catalan(8000) has ~4,800 digits, past Python's int-to-str limit
    assert main(["cumulants", "--named", "a3", "--tuple", ";".join([loop] * 8000)]) == 2
    err = capsys.readouterr().err
    assert "8000-tuple" in err and "208012" in err and "Traceback" not in err


def test_freeness_command(capsys):
    assert main(["freeness", "--named", "fork", "--max-order", "3",
                 "--tol", "1e-10", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_freeness_refuses_oversized_work(capsys):
    # fork: 776,861 extensions to order 7, 6,755,691 to 8, 59,975,143 to 9
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


def test_moments_matrix(capsys):
    assert main(["moments", "--named", "dbl", "--matrix-moments", "4",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix_moments"][0] == pytest.approx(data["pairing_sums"][0])


def test_gram_command(capsys):
    assert main(["gram", "--named", "a2", "--max-degree", "4"]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_gram_refuses_oversized_work(capsys):
    assert main(["gram", "--named", "k1_3"]) == 2
    err = capsys.readouterr().err
    assert "2396950 up to degree 13" in err and "Traceback" not in err


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
