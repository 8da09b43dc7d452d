"""The demos print what their recorded outputs say.

Each script in demos/ runs in a child process under ``python -S`` (no
site-packages, so the demos stay stdlib-only) with src/ on the path, and
its standard output must equal demos/<name>.out byte for byte.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")
NAMES = sorted(f[:-3] for f in os.listdir(DEMOS) if f.endswith(".py"))


def test_every_demo_has_a_recorded_output():
    assert NAMES and all(os.path.exists(os.path.join(DEMOS, n + ".out")) for n in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_is_the_recorded_one(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", os.path.join(DEMOS, name + ".py")],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(DEMOS, name + ".out"), "rb") as fh:
        assert proc.stdout == fh.read()
