import json
import os

import pytest

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
        ["pd", "a2.json", '{"dim_vector": [1, 1], "arrows": {"zz": [[1]]}}'],
        ["invariants", "a2.json", "a2_s0.json"],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [-1, 0]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1.7, 0]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1]}}}'],
        ["invariants", "a2.json", '{"terms": {"0": {"proj": [1, 0]}}, "differentials": {"0": 5}}'],
    ],
    ids=" ".join,
)
def test_bad_input_exit_2_without_traceback(argv, tmp_path, capsys):
    """Arguments ending in .json name files in data/; arguments starting
    with '{' are documents, written to a file first."""

    def path(arg, k):
        if arg.startswith("{"):
            doc = tmp_path / f"doc{k}.json"
            doc.write_text(arg)
            return str(doc)
        return data(arg) if arg.endswith(".json") else arg

    argv = [path(a, k) for k, a in enumerate(argv)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_findim_report_and_exit(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["findim", data("a2.json"), "--max-dim", "2", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["findim"]["best"] == 1
    assert rep["findim"]["witness_dims"] == [1, 0]
    assert rep["generator_amplitude"] == 1


def test_findim_budget_exit_3(capsys):
    assert main(["findim", data("nakayama3.json"), "--max-dim", "3", "--budget", "4"]) == 3


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
