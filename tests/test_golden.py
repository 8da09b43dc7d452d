"""Byte-for-byte comparison of CLI outputs and certificate JSON with
recorded copies in tests/golden/.

Each CLI case stores the exit code, stdout and the ``--json`` report; the
certificate cases store ``dumps(certificate_to_json(...))``.  Witness and
pivot choices are part of these bytes, so a change to the exact linear
algebra that picks different pivots fails here.

To re-record after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
import os
import random
import tempfile

import pytest

from findim import QQ, certificate_for_hom_p, certificate_from_resolution, stalk_complex
from findim.cli import main
from findim.invariants import random_perfect_complex
from findim.serialize import certificate_to_json, complex_to_json, dumps
from util import a2, dual_numbers, nakayama3

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, os.pardir, "data")
GOLDEN = os.path.join(HERE, "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

# Seeded random perfect complexes used as the invariants inputs; the
# documents are recorded once and then read, never regenerated.
COMPLEX_INPUTS = {
    "a2_x": (a2, 11),
    "a2_y": (a2, 12),
    "dual_numbers_x": (dual_numbers, 21),
    "dual_numbers_y": (dual_numbers, 22),
    "nakayama3_x": (nakayama3, 31),
    "nakayama3_y": (nakayama3, 32),
}

FINDIM = ["--max-dim", "2", "--seed", "7"]

CLI_CASES = {
    "pd_a2_s0": ["pd", "a2.json", "a2_s0.json"],
    "pd_a2_s1": ["pd", "a2.json", "a2_s1.json"],
    "pd_a2_s0_Q": ["pd", "a2.json", "a2_s0.json", "--field", "Q"],
    "pd_dual_numbers_simple": ["pd", "dual_numbers.json", "dn_simple.json"],
    "pd_dual_numbers_simple_gf3": ["pd", "dual_numbers.json", "dn_simple.json", "--field", "gfp:3"],
    "pd_dual_numbers_simple_Q": ["pd", "dual_numbers.json", "dn_simple.json", "--field", "Q"],
    "ghost_a2_s0_1": ["ghost", "a2.json", "a2_s0.json", "1"],
    "ghost_a2_s1_1": ["ghost", "a2.json", "a2_s1.json", "1"],
    "ghost_dual_numbers_simple_1": ["ghost", "dual_numbers.json", "dn_simple.json", "1"],
    "ghost_dual_numbers_simple_3": ["ghost", "dual_numbers.json", "dn_simple.json", "3"],
    "findim_a2": ["findim", "a2.json"] + FINDIM,
    "findim_k": ["findim", "k.json"] + FINDIM,
    "findim_dual_numbers": ["findim", "dual_numbers.json"] + FINDIM,
    "findim_nakayama3": ["findim", "nakayama3.json"] + FINDIM,
    "findim_a2_verify_theorem": ["findim", "a2.json", "--verify-theorem", "--samples", "5"] + FINDIM,
    "findim_nakayama3_verify_theorem": ["findim", "nakayama3.json", "--verify-theorem", "--samples", "5"]
    + FINDIM,
    "invariants_a2_x": ["invariants", "a2.json", "@a2_x"],
    "invariants_a2_x_y": ["invariants", "a2.json", "@a2_x", "@a2_y"],
    "invariants_a2_y_x": ["invariants", "a2.json", "@a2_y", "@a2_x"],
    "invariants_a2_x_y_Q": ["invariants", "a2.json", "@a2_x", "@a2_y", "--field", "Q"],
    "invariants_dual_numbers_x_y": ["invariants", "dual_numbers.json", "@dual_numbers_x", "@dual_numbers_y"],
    "invariants_nakayama3_x_y": ["invariants", "nakayama3.json", "@nakayama3_x", "@nakayama3_y"],
    "invariants_nakayama3_y_x": ["invariants", "nakayama3.json", "@nakayama3_y", "@nakayama3_x"],
    "invariants_nakayama3_x_y_gf3": [
        "invariants", "nakayama3.json", "@nakayama3_x", "@nakayama3_y", "--field", "gfp:3"
    ],
}


def _resolution_cert(field, truncate_at=None):
    s0 = a2(field).simple(0)
    return certificate_from_resolution(s0, 5, truncate_at), stalk_complex(s0, 0)


def _hom_p_cert(builder, field, seed):
    y = random_perfect_complex(builder(field), random.Random(seed))
    return certificate_for_hom_p(y, 0, 8), y


# name -> () -> (certificate, target); the hom_p cases end in a SumStep
# over several runs of the minimal model's support.
CERT_CASES = {
    "cert_a2_s0_gf2": lambda: _resolution_cert(None),
    "cert_a2_s0_Q": lambda: _resolution_cert(QQ),
    "cert_a2_s0_truncate0": lambda: _resolution_cert(None, truncate_at=0),
    "cert_hom_p_a2_s5_gf2": lambda: _hom_p_cert(a2, None, 5),
    "cert_hom_p_a2_s5_Q": lambda: _hom_p_cert(a2, QQ, 5),
    "cert_hom_p_nakayama3_s0_gf2": lambda: _hom_p_cert(nakayama3, None, 0),
}


def _argv(args):
    """Arguments starting with '@' name recorded complex documents in
    tests/golden/inputs/; other arguments ending in .json name files in data/."""

    def path(arg):
        if arg.startswith("@"):
            return os.path.join(INPUTS, arg[1:] + ".json")
        return os.path.join(DATA, arg) if arg.endswith(".json") else arg

    return [path(a) for a in args]


def run_cli(name, tmp_dir):
    report = os.path.join(tmp_dir, name + ".json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(_argv(CLI_CASES[name]) + ["--json", report])
    with open(report, "rb") as fh:
        rep = fh.read()
    return f"exit {code}\n{buf.getvalue()}".encode(), rep


def cert_bytes(name):
    cert, target = CERT_CASES[name]()
    return (dumps(certificate_to_json(cert, target)) + "\n").encode()


def _read(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out, rep = run_cli(name, str(tmp_path))
    assert out == _read(name + ".out")
    assert rep == _read(name + ".json")


@pytest.mark.parametrize("name", sorted(CERT_CASES))
def test_certificate_json_matches_golden(name):
    assert cert_bytes(name) == _read(name + ".json")


def _write(path, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def record():
    """Write the golden files; complex inputs only when they are missing."""
    os.makedirs(INPUTS, exist_ok=True)
    for name, (builder, seed) in COMPLEX_INPUTS.items():
        path = os.path.join(INPUTS, name + ".json")
        if not os.path.exists(path):
            x = random_perfect_complex(builder(), random.Random(seed))
            _write(path, (dumps(complex_to_json(x)) + "\n").encode())
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            out, rep = run_cli(name, tmp)
            _write(os.path.join(GOLDEN, name + ".out"), out)
            _write(os.path.join(GOLDEN, name + ".json"), rep)
    for name in CERT_CASES:
        _write(os.path.join(GOLDEN, name + ".json"), cert_bytes(name))


if __name__ == "__main__":
    record()
