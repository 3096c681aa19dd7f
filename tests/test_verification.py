import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import graphfree
from graphfree import cdelta, cumulants, epitl
from graphfree.cli import main
from graphfree.graphs import enumerate_paths, named_graph
from graphfree.verification import VerificationReport, _Runner, run_verification


CHECK_IDS = (
    "catalan-counts", "kreweras-oracle-and-rank", "kreweras-class-and-sign-identities",
    "doubling-bijection", "mobius-zero-to-one", "phi-psi-identity[a2]",
    "phi-psi-identity[a3]", "phi-psi-identity[a4]", "phi-psi-identity[k1_2]",
    "phi-psi-identity[k1_3]", "phi-psi-identity[dbl]", "phi-star-compatible[a2]",
    "phi-multiplicative[a2]", "tau-equals-t-phi[a2]", "traciality[a2]",
    "tau-equals-t-phi[a3]", "traciality[a3]", "tau-equals-t-phi[a4]", "traciality[a4]",
    "tau-equals-t-phi[k1_2]", "traciality[k1_2]", "tau-equals-t-phi[k1_3]",
    "traciality[k1_3]", "tau-equals-t-phi[dbl]", "traciality[dbl]", "gram-diagonal[a2]",
    "gram-diagonal[a3]", "gram-diagonal[a4]", "gram-diagonal[k1_2]",
    "gram-diagonal[k1_3]", "gram-diagonal[dbl]", "exchange-relation[a2]",
    "exchange-relation[a3]", "exchange-relation[k1_2]", "exchange-relation[dbl]",
    "compose-vs-rewriting", "action-functorial", "cap-adjoint-and-norm",
    "full-capping-closed-form", "generator-relations", "degenerate-relations",
    "cap-normalization-identity", "weight-multiplicativity", "weight-norm-estimate",
    "commutant-inversion", "alternating-truncation-structure", "center-reports",
    "cumulant-closed-form", "moment-cumulant-recovery", "mobius-inversion-roundtrip",
    "extension-order-independence", "bimodule-support", "freeness-certificate",
    "paper-parameter-values", "single-hub-pipeline-agreement",
    "component-parameter-routes", "structure-atoms", "corner-compression",
    "matrix-moments-free-poisson", "jones-projections[a3]", "markov-tower[a3]",
    "minimal-projection-traces[a3]", "loop-isomorphism[a3]",
    "loop-product-two-routes[a3]", "annular-equivariance[a3]", "pairing-elements[a3]",
    "shifted-loop-isomorphism[a3]", "jones-projections[a4]", "markov-tower[a4]",
    "minimal-projection-traces[a4]", "loop-isomorphism[a4]",
    "loop-product-two-routes[a4]", "annular-equivariance[a4]", "pairing-elements[a4]",
    "shifted-loop-isomorphism[a4]",
)
# --fast runs the Gram check on a2 and a3 only
FAST_CHECK_IDS = tuple(c for c in CHECK_IDS if c not in {
    "gram-diagonal[a4]", "gram-diagonal[k1_2]", "gram-diagonal[k1_3]", "gram-diagonal[dbl]"})


def test_all_suites_pass_fast():
    t0 = time.time()
    rep = run_verification("all", fast=True, seed=1)
    elapsed = time.time() - t0
    failed = [r for r in rep.results if not r.passed]
    assert rep.ok, [f"{r.check_id}: {r.witness}" for r in failed]
    assert elapsed < 240.0
    assert tuple(r.check_id for r in rep.results) == FAST_CHECK_IDS


def test_suite_names_are_runnable():
    for s in ("combinatorics", "factor"):
        assert run_verification(s).ok
    with pytest.raises(ValueError):
        run_verification("no-such-suite")


def test_report_ordering_deterministic():
    a = run_verification("factor", seed=3)
    b = run_verification("factor", seed=3)
    assert [r.check_id for r in a.results] == [r.check_id for r in b.results]
    assert [r.witness for r in a.results] == [r.witness for r in b.results]


def test_gram_check_ids_are_pinned():
    # a full run differs from the --fast one (pinned by test_all_suites_pass_fast)
    # only in the gram suite
    assert len(CHECK_IDS) == 75 and len(FAST_CHECK_IDS) == 71
    gram = run_verification("gram", max_degree=6)
    assert tuple(r.check_id for r in gram.results) == tuple(
        c for c in CHECK_IDS if c.startswith("gram-diagonal["))


def _judge(*deviations, tol=1e-9):
    report = VerificationReport("x")
    _Runner(report, {}, 0, tol, 0, False).check("c", lambda: iter(deviations), tol)
    return report.results[0]


def test_runner_judges_the_largest_deviation_and_fails_at_a_nan():
    assert _judge().witness == "max deviation 0 (tol 1e-09)" and _judge().passed
    assert _judge(1e-10, -1.0, 5e-10).witness == "max deviation 5e-10 (tol 1e-09)"
    assert not _judge(0.0, 2e-9).passed
    for devs in ((float("nan"), 0.0), (0.0, float("nan")), (2.0, np.nan, 3.0)):
        result = _judge(*devs, tol=10.0)
        assert not result.passed and result.witness == "max deviation nan (tol 1e+01)"

    def fails_midway():
        yield 0.0
        raise KeyError("v0")
    report = VerificationReport("x")
    _Runner(report, {}, 0, 1e-9, 0, False).check("c", fails_midway, 1e-9)
    assert not report.results[0].passed
    assert report.results[0].witness == "error: KeyError: 'v0'"


def test_verification_failure_exit_code(capsys):
    # an absurd tolerance forces the trace comparison to fail with code 1
    code = main(["trace", "--named", "a3", "--all-loops", "--max-len", "4",
                 "--tol", "1e-30"])
    capsys.readouterr()
    assert code == 1


def test_check_stores_plain_bool():
    # a numpy deviation compares to numpy.bool_, which json cannot write
    report = VerificationReport("x")
    _Runner(report, {}, 0, 1e-9, 0, False).check(
        "numpy-deviation", lambda: (np.float64(1e-12),), 1e-9)
    assert type(report.results[0].passed) is bool
    json.dumps(report.as_dict())


@pytest.mark.parametrize("mixed,stp,passed", [
    (3e-11, 5e-11, True),    # a pass reports its margin, the larger deviation
    (0.0, 2e-10, False),     # a failed diagram identity fails the check
    (1e-10, 0.0, True),      # a deviation that ties the tol passes, as in the runner
    (float("nan"), 0.0, False),
    (0.0, float("nan"), False),
])
def test_freeness_certificate_check_reports_its_margin(monkeypatch, mixed, stp, passed):
    def certificate(graph, max_order, tol, rng):
        return cumulants.FreenessReport(max_order, tol, 1, mixed, mixed <= tol and stp <= tol,
                                        stp_checks=1, stp_max_dev=stp)

    monkeypatch.setattr(cumulants, "freeness_certificate", certificate)
    result = next(r for r in run_verification("cumulants").results
                  if r.check_id == "freeness-certificate")
    assert result.passed is passed
    if passed:
        assert result.witness.startswith(f"max deviation {max(mixed, stp):.3g} ")


def _calls_per_check(monkeypatch, module, name, suite):
    """Calls of module.name that each check of one suite makes."""
    calls, per_check = [0], {}
    real, real_check = getattr(module, name), _Runner.check

    def counting(*args):
        calls[0] += 1
        return real(*args)

    def check(self, check_id, fn, tol):
        before = calls[0]
        real_check(self, check_id, fn, tol)
        per_check[check_id] = calls[0] - before

    monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(_Runner, "check", check)
    run_verification(suite)
    return per_check


def test_diagram_relation_checks_act_once_per_basis_path(monkeypatch):
    # exchange-relation acts with each cap i < m once on every length-m
    # path, one table per length m = 2..8 serving as first and second cap:
    # sum_{m=2..8} (m-1) N_m, with N_m = 2^(m+1) on dbl.  A table per n of
    # second caps took 7,144 calls on dbl, and acting twice per
    # (path, p, q) took 28,576.
    acts = _calls_per_check(monkeypatch, epitl, "act", "epitl")
    for name in ("a2", "a3", "k1_2", "dbl"):
        g = named_graph(name)
        n_paths = [len(enumerate_paths(g, None, m, None)) for m in range(9)]
        assert acts[f"exchange-relation[{name}]"] == sum(
            (m - 1) * n_paths[m] for m in range(2, 9))
    assert acts["exchange-relation[dbl]"] == 6152
    # generator-relations: each generator acts once on each loop at v of
    # each length it meets (8,624 calls when each side acted on each loop)
    gens = _calls_per_check(monkeypatch, cdelta, "gen_act", "cdelta")
    assert gens["generator-relations"] == 3160


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def test_verify_never_imports_numpy_ma():
    # numpy.ma costs 13-15 ms to import, once per process; a bare np.unique
    # (no return_index, return_inverse or return_counts) pulls it in
    code = ("import sys; from graphfree.verification import run_verification; "
            "assert run_verification('all', max_degree=4).ok; "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_subprocess_env(), check=True)
    assert out.stdout.strip() == "False"


def test_verify_and_freeness_never_import_numpy_random():
    # numpy.random is lazy in numpy 2 and costs 11-13 ms and 4.6 MiB to
    # import; every seeded draw of the library is a stdlib random.Random
    code = "\n".join([
        "import contextlib, io, sys",
        "from graphfree import cli",
        "from graphfree.verification import run_verification",
        "assert run_verification('all', max_degree=4).ok",
        "loaded = ['numpy.random' in sys.modules]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['freeness', '--named', 'fork']) == 0",
        "loaded.append('numpy.random' in sys.modules)",
        "print(loaded)"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_subprocess_env(), check=True)
    assert out.stdout.strip() == "[False, False]"


def _numpy_random_references(source: str) -> list[int]:
    """Lines of source that name numpy.random: an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            named = (node.attr == "random" and isinstance(node.value, ast.Name)
                     and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            named = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            named = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            continue
        if named:
            lines.append(node.lineno)
    return lines


def test_no_library_module_references_numpy_random():
    assert _numpy_random_references("import numpy as np\nq = np.random.default_rng(0)\n") == [2]
    assert _numpy_random_references("from numpy import random\n") == [1]
    found = {path.name: _numpy_random_references(path.read_text())
             for path in sorted(Path(graphfree.__file__).parent.glob("*.py"))}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_verify_json_repeats_for_a_seed():
    # two processes with different hash seeds; only the timings may differ
    def report(hash_seed):
        code = ("import sys; from graphfree.cli import main; "
                "sys.exit(main(['verify', '--max-degree', '4', '--seed', '3', '--json']))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(_subprocess_env(), PYTHONHASHSEED=hash_seed), check=True)
        data = json.loads(out.stdout)
        for entry in data["checks"] + data["suites"]:
            del entry["elapsed"]
        return data

    first = report("1")
    assert first["ok"] and first["passed"] == len(CHECK_IDS)
    assert report("2") == first
