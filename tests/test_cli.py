import argparse
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import findim.certificates
import findim.cli
import findim.complexes
import findim.serialize
from findim import certificate_from_resolution, resolve_to_perfect, stalk_complex
from findim.cli import main
from findim.serialize import certificate_to_json, complex_to_json, dumps
from util import a2

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def data(name):
    return os.path.join(DATA, name)


def test_pd_exit_ok(capsys):
    assert main(["pd", data("a2.json"), data("a2_s0.json")]) == 0
    out = capsys.readouterr().out
    assert "Finite(1)" in out


def test_pd_periodic(capsys):
    assert main(["pd", data("dual_numbers.json"), data("dn_simple.json")]) == 0
    assert "periodic" in capsys.readouterr().out.lower()


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pd", str(bad), data("a2_s0.json")]) == 2


def test_field_flag_override(capsys):
    assert main(["pd", data("a2.json"), data("a2_s0.json"), "--field", "gfp:5"]) == 0
    assert main(["pd", data("a2.json"), data("a2_s0.json"), "--field", "bogus"]) == 2


def _paths(argv, tmp_path):
    """Arguments ending in .json name files in data/; arguments starting
    with '{' are documents, written to a file first."""

    def path(arg, k):
        if arg.startswith("{"):
            doc = tmp_path / f"doc{k}.json"
            doc.write_text(arg)
            return str(doc)
        return data(arg) if arg.endswith(".json") else arg

    return [path(a, k) for k, a in enumerate(argv)]


def _a2(arrow=None, **fields):
    """data/a2.json as a document, with these fields and arrow fields replaced."""
    a = dict({"id": "a", "from": 0, "to": 1}, **(arrow or {}))
    doc = {"field": {"gfp": 2}, "vertices": 2, "arrows": [a], "relations": [], "max_len": 4}
    return json.dumps(dict(doc, **fields))


def _leaf_cert(leaf=None, **fields):
    """A certificate of P_0 in degree 0 as one leaf, which verifies as it
    stands, with these fields and leaf fields replaced."""
    p0 = {"terms": {"0": {"proj": [1, 0]}}}
    step = {"leaf": dict({"summand": 0, "shift": 0}, **(leaf or {})), "object": p0, "level": 1}
    doc = {"generator": "A", "level": 1, "steps": [step], "compare": {"0": [[[1]], [[1]]]}, "target": p0}
    return json.dumps(dict(doc, **fields))


@pytest.mark.parametrize(
    "argv",
    [
        ["pd", "a2.json", "a2_s0.json", "--field", "gfp:x"],
        ["pd", "a2.json", "a2_s0.json", "--field", "gfp:4"],
        ["pd", "a2.json", "a2_s0.json", "--cutoff", "0"],
        ["ghost", "a2.json", "a2_s0.json", "1", "--cutoff", "0"],
        ["findim", "a2.json", "--cutoff", "0"],
        ["findim", "a2.json", "--field", "Q"],
        ["findim", "a2.json", "--max-dim", "-1"],
        ["findim", "a2.json", "--max-dim", "1", "--verify-theorem", "--samples", "-3"],
        ["findim", "a2.json", "--max-dim", "1", "--verify-theorem", "--samples", "0"],
        ["pd", "a2.json", '{"dim_vector": [1, 1], "arrows": {"zz": [[1]]}}'],
        ["invariants", "a2.json", "a2_s0.json"],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [-1, 0]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1.7, 0]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1, 0]}}, "differentials": {"0": 5}}'],
        ["pd", "a2.json", '{"dim_vector": [1, 1], "arrows": {"a": [1]}}'],
        ["pd", "a2.json", '{"dim_vector": [1, 1], "arrows": {"a": [[0.5]]}}'],
        ["pd", "a2.json", '{"dim_vector": [1, 1], "arrows": {"a": [[true]]}}'],
        ["pd", "a2.json", '{"dim_vector": [1, 1], "arrows": {"a": [["1/0"]]}}'],
        [
            "pd",
            '{"field": "Q", "vertices": 1, "arrows": [{"id": "x", "from": 0, "to": 0}], '
            '"relations": [[{"coeff": 0.5, "path": ["x", "x"]}]], "max_len": 3}',
            '{"dim_vector": [1], "arrows": {"x": [[0]]}}',
        ],
        [
            "pd",
            '{"field": "Q", "vertices": 1, "arrows": [{"id": "x", "from": 0, "to": 0}], '
            '"relations": [[{"coeff": "1/0", "path": ["x", "x"]}]], "max_len": 3}',
            '{"dim_vector": [1], "arrows": {"x": [[0]]}}',
        ],
        [
            "invariants",
            "a2.json",
            '{"terms": {"0": {"proj": [1, 0]}, "1": {"proj": [0, 1]}}, "differentials": {"0": [[]]}}',
        ],
        [
            "verify-certificate",
            "a2.json",
            '{"generator": "A", "level": 0, "steps": [], "compare": [], "target": {"terms": {}}}',
        ],
        ["pd", _a2(vertices=2.9, max_len=4.9), "a2_s0.json"],
        ["pd", _a2(vertices="2"), "a2_s0.json"],
        ["pd", _a2(vertices=True, arrows=[]), '{"dim_vector": [1]}'],
        ["pd", _a2(arrow={"from": 0.0}), "a2_s0.json"],
        ["pd", _a2(arrow={"to": "1"}), "a2_s0.json"],
        ["pd", _a2(max_len="4"), "a2_s0.json"],
        ["pd", _a2(field={"gfp": 2.0}), "a2_s0.json"],
        ["pd", _a2(field={"gfp": "2"}), "a2_s0.json"],
        ["pd", "a2.json", '{"dim_vector": [1.0, 0]}'],
        ["pd", "a2.json", '{"dim_vector": [true, 0]}'],
        ["pd", "a2.json", '{"dim_vector": ["1", 0]}'],
        ["verify-certificate", "a2.json", _leaf_cert(level=1.0)],
        ["verify-certificate", "a2.json", _leaf_cert(leaf={"summand": "0"})],
        [
            "verify-certificate",
            "a2.json",
            '{"generator": "A", "level": 1, "steps": [{"leaf": {"summand": 0, "shift": 0}, '
            '"object": {"terms": {"0": {"proj": [1, 0]}}}, "level": 1}], '
            '"compare": {"0": [[[1]]]}, "target": {"terms": {"0": {"proj": [1, 0]}}}}',
        ],
        ["verify-certificate", "a2.json", _leaf_cert(leaf={"shift": False})],
        # degree keys other than str(n): a term, a differential, a chain map
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1, 0]}, "+0": {"proj": [0, 1]}}}'],
        [
            "invariants",
            "a2.json",
            '{"terms": {"0": {"proj": [1, 0]}, "1": {"proj": [0, 1]}}, "differentials": {"-0": [[], [[0]]]}}',
        ],
        ["verify-certificate", "a2.json", _leaf_cert(compare={"0 ": [[[1]], [[1]]]})],
    ],
    ids=" ".join,
)
def test_bad_input_exit_2_without_traceback(argv, tmp_path, capsys):
    assert main(_paths(argv, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


# A bad matrix, the --field it is read over (None: the algebra's GF(2)), and
# the one line of stderr it gives, through a module arrow and through a
# certificate's compare map alike.  A bad scalar is named before a row of
# the wrong length.
BAD_MATRICES = {
    "short row": ([[]], None, "matrix data does not match shape"),
    "row not a list": ([1], None, "expected each matrix row to be a list, got [1]"),
    "float": ([[0.5]], None, "bad scalar 0.5: expected an integer or an 'a/b' string"),
    "boolean": ([[True]], None, "bad scalar True: expected an integer or an 'a/b' string"),
    "1/0": ([["1/0"]], None, "bad scalar '1/0': Fraction(1, 0)"),
    "1/3 over GF(3)": ([["1/3"]], "gfp:3", "bad scalar '1/3': denominator not invertible mod 3"),
    "bad scalar in a short row": ([[0.5, 1]], None, "bad scalar 0.5: expected an integer or an 'a/b' string"),
}


@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
@pytest.mark.parametrize("command", ["pd", "verify-certificate"])
def test_bad_matrix_message(command, case, tmp_path, capsys):
    mat, field, message = BAD_MATRICES[case]
    if command == "pd":
        doc = json.dumps({"dim_vector": [1, 1], "arrows": {"a": mat}})
    else:
        doc = _leaf_cert(compare={"0": [[[1]], mat]})
    argv = [command, "a2.json", doc] + (["--field", field] if field else [])
    assert main(_paths(argv, tmp_path)) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


# The differentials from degree 0 up of a complex of P_0 in each degree, and
# the one line of stderr it gives.  d o d is checked in every degree before
# any differential is checked to be a module map.
BAD_COMPLEXES = {
    "d o d": ([[[[1]], [[1]]]] * 2, "bad complex document: d o d != 0 at degree 0"),
    "not a module map": ([[[[1]], [[0]]]], "differential at degree 0 is not a module map"),
    "d o d above a non-module map": (
        [[[[0]], [[1]]], [[[1]], [[0]]], [[[1]], [[1]]]],
        "bad complex document: d o d != 0 at degree 1",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_COMPLEXES))
@pytest.mark.parametrize("command", ["invariants", "verify-certificate"])
def test_bad_complex_message(command, case, tmp_path, capsys):
    diffs, message = BAD_COMPLEXES[case]
    doc = json.dumps({
        "terms": {str(n): {"proj": [1, 0]} for n in range(len(diffs) + 1)},
        "differentials": {str(n): d for n, d in enumerate(diffs)},
    })
    # the complex is the target argument of verify-certificate
    argv = [command, "a2.json"] + ([_leaf_cert()] if command == "verify-certificate" else []) + [doc]
    assert main(_paths(argv, tmp_path)) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


# S_0 + S_1 on a2 is not projective, yet each certificate below claims it
# at level 1 through a map that is a chain map of matrices but not of module
# maps: the compare map P_0 -> S_0 + S_1, or the retraction of P_0 onto it.
_S0_S1 = {"terms": {"0": {"dim_vector": [1, 1], "arrows": {"a": [[0]]}}}}
_ID = {"0": [[[1]], [[1]]]}
FALSE_LEVELS = {
    "compare": (_leaf_cert(target=_S0_S1), "comparison map is not a chain map"),
    "retract": (
        _leaf_cert(
            steps=[
                json.loads(_leaf_cert())["steps"][0],
                {"retract": {"z": 0, "p": _ID, "s": _ID, "h": {}}, "object": _S0_S1, "level": 1},
            ],
            target=_S0_S1,
        ),
        "step 1: retract maps are not chain maps",
    ),
}


@pytest.mark.parametrize("case", sorted(FALSE_LEVELS))
def test_maps_that_are_not_module_maps_fail_verification(case, tmp_path, capsys):
    cert, diagnostic = FALSE_LEVELS[case]
    assert main(_paths(["verify-certificate", "a2.json", cert], tmp_path)) == 1
    assert capsys.readouterr().out.endswith(f"}}\n{diagnostic}\n")


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    real = findim.cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(findim.cli, "build_parser", counting)
    findim.cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["pd", data("a2.json"), data("a2_s0.json")]) == 0
    finally:
        findim.cli._parser.cache_clear()
    assert len(built) == 1


def test_options_of_one_call_do_not_carry_into_the_next(tmp_path, capsys):
    """A plain pd after one with every option set reports as a new process does."""
    argv = ["pd", data("a2.json"), data("a2_s0.json")]
    fresh = _findim_limited(*argv)
    assert fresh.returncode == 0, fresh.stderr
    report = tmp_path / "report.json"
    assert main(argv + ["--field", "Q", "--cutoff", "3", "--json", str(report), "--seed", "5"]) == 0
    capsys.readouterr()
    report.unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh.stdout
    assert not report.exists()


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["pd"], 2), (["nosuch"], 2)], ids=str)
def test_a_call_that_exits_leaves_the_next_working(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    capsys.readouterr()
    assert main(["pd", data("a2.json"), data("a2_s0.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "proj_dim: Finite(1)"


class _Reads(argparse.Namespace):
    """A namespace that records the names read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_names").add(name)
        return object.__getattribute__(self, name)


OPTION_CASES = {
    "pd": ["a2.json", "a2_s0.json"],
    "findim": ["a2.json", "--max-dim", "1", "--verify-theorem", "--samples", "1"],
    "invariants": ["a2.json", '{"terms": {"0": {"proj": [1, 0]}}}'],
    "verify-certificate": ["a2.json", _leaf_cert()],
    "ghost": ["a2.json", "a2_s0.json", "1"],
}


@pytest.mark.parametrize("command", sorted(OPTION_CASES))
def test_every_option_is_read_by_its_handler(command, tmp_path, capsys):
    """Each option of a subcommand is read by its handler, directly or
    through _envelope and _emit.  The range checks in main do not count:
    checking an option that nothing uses is no use of it."""
    parser = findim.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(OPTION_CASES)
    argv = [command] + _paths(OPTION_CASES[command], tmp_path)
    args = parser.parse_args(argv + ["--json", str(tmp_path / "report.json")], namespace=_Reads())
    args._names = set()
    assert args.func(args) == 0
    options = [a for a in subparsers.choices[command]._actions if a.option_strings and a.dest != "help"]
    assert [a.option_strings[0] for a in options if a.dest not in args._names] == []


def _findim_limited(*argv):
    """findim in a child process under a 1 GiB address-space limit and a
    60 s timeout, so an input that takes memory without bound fails the
    test instead of taking the memory of the test runner."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "findim.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )


def test_huge_max_len_on_an_acyclic_quiver(tmp_path):
    """max_len 10^9 on a2, whose paths end at length 1, answers at once."""
    with open(data("a2.json")) as fh:
        doc = json.load(fh)
    doc["max_len"] = 10**9
    alg = tmp_path / "a2_huge.json"
    alg.write_text(json.dumps(doc))
    proc = _findim_limited("pd", str(alg), data("a2_s0.json"))
    assert proc.returncode == 0, proc.stderr
    assert "Finite(1)" in proc.stdout


def test_huge_max_len_on_a_loop_exit_3(tmp_path):
    """max_len 10^9 on the dual numbers: the paths x^L hold about L^2 / 2
    arrows, so the path enumeration stops at its arrow budget, with one
    line on stderr, before it takes the memory of the child."""
    with open(data("dual_numbers.json")) as fh:
        doc = json.load(fh)
    doc["max_len"] = 10**9
    alg = tmp_path / "dn_huge.json"
    alg.write_text(json.dumps(doc))
    proc = _findim_limited("pd", str(alg), data("dn_simple.json"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "budget exceeded: more than the budget of 16777216 arrows held by the paths "
        "of length <= 1000000000\n"
    )


def test_long_resolution_over_q_runs_no_search():
    """3,000 syzygies of the simple over the dual numbers over Q: each is
    isomorphic to the one before, but over Q no search can prove it, so the
    resolution compares none of them and answers within the time limit."""
    proc = _findim_limited("pd", data("dual_numbers.json"), data("dn_simple.json"), "--field", "Q", "--cutoff", "3000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "proj_dim: AtLeastCutoff"


def test_long_ghost_chain_answers_within_the_limit():
    """The ghost oracle with n = 3000 over the dual numbers reads 6,004
    resolution terms; its checks and its composite grow linearly in n, so
    it answers within the time and memory limit."""
    proc = _findim_limited("ghost", data("dual_numbers.json"), data("dn_simple.json"), "3000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "ghost composite: not null-homotopic; pd AtLeastCutoff; periodic (Omega^1 ~ Omega^0)"
    )


def test_sum_step_of_many_parts_is_refused_on_its_dimensions(tmp_path):
    """A sum of 100,000 copies of P_0 declared as P_0: the dimension vectors
    differ, so the verifier refuses it without building the sum."""
    doc = json.loads(_leaf_cert())
    p0 = doc["steps"][0]["object"]
    doc["steps"].append({"sum": [0] * 100_000, "object": p0, "level": 1})
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    proc = _findim_limited("verify-certificate", data("a2.json"), str(cert))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1:] == ["step 1: sum object does not recompute"]


def test_unknown_arrow_id_in_a_module_document_exit_2(tmp_path, capsys):
    doc = tmp_path / "module.json"
    doc.write_text('{"dim_vector": [1, 1], "arrows": {"b": [[1]]}}')
    assert main(["pd", data("a2.json"), str(doc)]) == 2
    assert capsys.readouterr().err == "parse error: bad module document: unknown arrow id(s) ['b']\n"


def test_huge_vertex_count_exit_3(tmp_path):
    """10^9 vertices are more trivial paths than the path budget allows,
    which is checked before any path is listed."""
    alg = tmp_path / "many_vertices.json"
    alg.write_text(_a2(vertices=10**9))
    proc = _findim_limited("pd", str(alg), data("a2_s0.json"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "budget exceeded: more than the budget of 65536 paths of length 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["pd", "a2.json", '{"dim_vector": [1000000, 1000000]}'],
        ["pd", "a2.json", '{"dim_vector": [3000, 3000]}'],
        ["pd", "k.json", '{"dim_vector": [1000000000]}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1000000000, 0]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1, 0]}, "1": {"proj": [0, 3000]}}}'],
    ],
    ids=" ".join,
)
def test_module_size_budget_exit_3(argv, tmp_path):
    """A module document or a "proj" term too large for the cell budget
    stops before its matrices are allocated."""
    proc = _findim_limited(*_paths(argv, tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("budget exceeded: a module of dimension vector")
    assert proc.stderr.count("\n") == 1


def test_findim_report_and_exit(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["findim", data("a2.json"), "--max-dim", "2", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["findim"]["best"] == 1
    assert rep["findim"]["witness_dims"] == [1, 0]
    assert rep["generator_amplitude"] == 1


def test_findim_budget_exit_3(capsys):
    assert main(["findim", data("nakayama3.json"), "--max-dim", "3", "--budget", "4"]) == 3


def test_algebra_build_budget_exit_3(tmp_path, capsys):
    """Two loops with only xx = 0: the relation matrix at max_len 11 would
    hold 9217 x 4095 cells, so the build stops at its 1025th row, before
    allocating it."""
    doc = {
        "field": {"gfp": 2},
        "vertices": 1,
        "arrows": [{"id": "x", "from": 0, "to": 0}, {"id": "y", "from": 0, "to": 0}],
        "relations": [[{"coeff": 1, "path": ["x", "x"]}]],
        "max_len": 11,
    }
    alg = tmp_path / "two_loops.json"
    alg.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["findim", str(alg)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:")
    assert "more than 1024 x 4095 cells at path length 11" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_findim_verify_theorem(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        [
            "findim",
            data("a2.json"),
            "--max-dim",
            "2",
            "--verify-theorem",
            "--samples",
            "5",
            "--seed",
            "3",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    suite = json.loads(out.read_text())["theorem_suite"]
    assert suite["failures"] == 0 and suite["samples"] == 5
    assert suite["amp_ok"]


def test_findim_byte_identical_reports(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["findim", data("a2.json"), "--max-dim", "2", "--seed", "7", "--json", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_invariants_command(tmp_path, capsys):
    alg = a2()
    x = resolve_to_perfect(alg.simple(0), 5)
    xf = tmp_path / "x.json"
    xf.write_text(dumps(complex_to_json(x)))
    out = tmp_path / "rep.json"
    assert main(["invariants", data("a2.json"), str(xf), "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["amplitude"] == 0 and rep["h"] >= 1


def test_invariants_not_perfect_exit_4(tmp_path):
    alg = a2()
    s = stalk_complex(alg.simple(0), 0)
    xf = tmp_path / "s.json"
    xf.write_text(dumps(complex_to_json(s)))
    assert main(["invariants", data("a2.json"), str(xf)]) == 4


def test_verify_certificate_roundtrip(tmp_path, capsys):
    alg = a2()
    s0 = alg.simple(0)
    cert = certificate_from_resolution(s0, 5)
    cf = tmp_path / "cert.json"
    cf.write_text(dumps(certificate_to_json(cert, stalk_complex(s0, 0))))
    assert main(["verify-certificate", data("a2.json"), str(cf)]) == 0
    out = capsys.readouterr().out
    assert "ok: level 2" in out


def test_verify_certificate_parses_each_complex_once(tmp_path, monkeypatch):
    """Five step objects, the final object's compare target and nothing
    more: the target is taken from the parsed certificate."""
    calls = []
    real = findim.serialize.complex_from_json

    def counting(algebra, doc):
        calls.append(doc)
        return real(algebra, doc)

    monkeypatch.setattr(findim.serialize, "complex_from_json", counting)
    monkeypatch.setattr(findim.cli, "complex_from_json", counting)
    s0 = a2().simple(0)
    cert = certificate_from_resolution(s0, 5)
    assert len(cert.steps) == 5
    cf = tmp_path / "cert.json"
    cf.write_text(dumps(certificate_to_json(cert, stalk_complex(s0, 0))))
    assert main(["verify-certificate", data("a2.json"), str(cf)]) == 0
    assert len(calls) == 6


def test_verify_theorem_resolves_each_cohomology_module_once(monkeypatch, capsys):
    """The sampler and the certificate builder read the same cohomology
    module of each kept sample, and with it its one lazy resolution."""
    args = ["findim", data("nakayama3.json"), "--max-dim", "2", "--verify-theorem", "--samples", "50"]
    assert main(args) == 0
    before = capsys.readouterr().out
    seen = []
    real = findim.certificates.proj_dim

    def recording(m, cutoff):
        seen.append(m)  # held, so no id is reused
        return real(m, cutoff)

    monkeypatch.setattr(findim.certificates, "proj_dim", recording)
    assert main(args) == 0
    assert capsys.readouterr().out == before
    assert len(seen) == 128
    assert len({id(m) for m in seen}) == 64


def test_verify_theorem_computes_cohomology_dims_once_per_complex(monkeypatch, capsys):
    """183 calls: 83 sampler draws, 50 certificate builds on kept samples
    and 50 cones in verify_certificate.  The builds read the answer the
    sampler left on their complex, so 133 are computed."""
    args = ["findim", data("nakayama3.json"), "--max-dim", "2", "--verify-theorem", "--samples", "50"]
    assert main(args) == 0
    before = capsys.readouterr().out
    computed = []
    real = findim.complexes.cohomology_dims

    def recording(x):
        computed.append(getattr(x, "_cohomology_dims", None) is None)
        return real(x)

    monkeypatch.setattr(findim.complexes, "cohomology_dims", recording)
    monkeypatch.setattr(findim.certificates, "cohomology_dims", recording)
    assert main(args) == 0
    assert capsys.readouterr().out == before
    assert len(computed) == 183
    assert sum(computed) == 133


def test_verify_certificate_rejects_truncated(tmp_path):
    alg = a2()
    s0 = alg.simple(0)
    cert = certificate_from_resolution(s0, 5, truncate_at=0)
    cf = tmp_path / "cert.json"
    cf.write_text(dumps(certificate_to_json(cert, stalk_complex(s0, 0))))
    assert main(["verify-certificate", data("a2.json"), str(cf)]) == 1


def test_ghost_command(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["ghost", data("a2.json"), data("a2_s0.json"), "1", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["null_homotopic"] is True and rep["consistent"] is True
    assert main(["ghost", data("dual_numbers.json"), data("dn_simple.json"), "2"]) == 0
    assert "not null-homotopic" in capsys.readouterr().out
