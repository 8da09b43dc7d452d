"""Acceptance gate: seven end-to-end criteria, one test each.

Each test prints a single PASS line on success; a failure message names the
criterion.  The suites are deterministic (fixed seeds throughout).
"""

import json
import random

from findim import (
    amplitude,
    certificate_for_hom_p,
    certificate_from_resolution,
    cone,
    direct_sum,
    enumerate_modules,
    findim_estimate,
    finitistic_generator,
    ghost_maps,
    ghost_pd_oracle,
    h_value,
    hom_support,
    in_hom_p,
    inj_dim,
    proj_dim,
    random_chain_map,
    random_perfect_complex,
    regularity_check,
    shift,
    stalk_complex,
    verify_certificate,
)
from findim.certificates import theorem_samples
from findim.complexes import induced_cohomology_zero
from findim.invariants import algebra_complex
from findim.modules import direct_sum_modules
from findim.cli import main
from util import a2, dual_numbers, k_algebra, nakayama3


def test_criterion_1_main_theorem_suite():
    """Exhaustive findim d; amplitude(A + shift(A,d)) = d; 50 sampled
    certificates per algebra at level <= width + d with zero failures."""
    failures = []
    for name, algebra in (("k", k_algebra()), ("a2", a2()), ("nakayama3", nakayama3())):
        rep = findim_estimate(algebra, 3, 8)
        assert rep.exhaustive, f"criterion 1: findim not exhaustive on {name}"
        d = rep.best
        assert amplitude(finitistic_generator(algebra, d)) == d, (
            f"criterion 1: generator amplitude mismatch on {name}"
        )
        samples = list(theorem_samples(algebra, d, 50, 8, 17))
        assert len(samples) == 50, f"criterion 1: sampler starved on {name}"
        for y, width in samples:
            cert = certificate_for_hom_p(y, d, 8)
            ok = verify_certificate(cert, y, algebra).ok
            if not ok or cert.level > width + d:
                failures.append((name, width, cert.level, ok))
    assert not failures, f"criterion 1: {failures}"
    print("PASS criterion 1: main-theorem certificate suite (3 algebras x 50 samples)")


def test_criterion_2_resolution_certificates():
    """Every enumerated module of finite pd gets a verified level-(pd+1)
    certificate; truncated certificates fail."""
    checked = controls = 0
    for algebra in (a2(), nakayama3()):
        for m in enumerate_modules(algebra, 4):
            res = proj_dim(m, 8)
            if not res.is_finite:
                continue
            target = stalk_complex(m, 0)
            cert = certificate_from_resolution(m, 8)
            want = 0 if m.is_zero() else res.value + 1
            assert cert.level == want, f"criterion 2: level {cert.level} != {want}"
            assert verify_certificate(cert, target, algebra).ok, (
                f"criterion 2: certificate rejected for dims {m.dims}"
            )
            checked += 1
            if res.value >= 1:
                bad = certificate_from_resolution(m, 8, truncate_at=res.value - 1)
                assert not verify_certificate(bad, target, algebra).ok, (
                    f"criterion 2: truncated certificate accepted for dims {m.dims}"
                )
                controls += 1
    assert checked > 0 and controls > 0
    print(
        f"PASS criterion 2: {checked} certificates verified, "
        f"{controls} negative controls rejected"
    )


def test_criterion_3_ghost_oracle():
    """ghost_pd_oracle(m, n) <=> pd m <= n over the same enumeration, n = 1..6,
    and every constructed ghost map induces zero on cohomology."""
    disagreements = 0
    checked = 0
    for algebra in (a2(), nakayama3()):
        for m in enumerate_modules(algebra, 4):
            pd = proj_dim(m, 10)
            for n in range(1, 7):
                expected = pd.is_finite and pd.value <= n
                if ghost_pd_oracle(m, n, 16) != expected:
                    disagreements += 1
                checked += 1
            if not m.is_zero():
                maps, _ = ghost_maps(m, 2)
                for f in maps:
                    assert induced_cohomology_zero(f), "criterion 3: non-ghost map"
    assert disagreements == 0, f"criterion 3: {disagreements} oracle disagreements"
    print(f"PASS criterion 3: ghost oracle agreed with pd on {checked} checks")


def _probes(algebra):
    ps = [stalk_complex(algebra.simple(i), 0) for i in range(algebra.num_vertices)]
    return ps + [algebra_complex(algebra)]


def test_criterion_4_hom_basic_properties():
    """Properties (1)-(6) of the Hom-support calculus over 200 seeded random
    perfect complexes per algebra, zero counterexamples."""
    algebras = [("k", k_algebra()), ("a2", a2()), ("dual", dual_numbers()), ("nak3", nakayama3())]
    for name, algebra in algebras:
        probes = _probes(algebra)
        rng = random.Random(23)
        for idx in range(200):
            x = random_perfect_complex(algebra, rng)
            z = probes[idx % len(probes)]
            s = hom_support(x, z)
            # (1) h = 0 iff empty support; (2) h <= 1 iff at most one degree
            assert (h_value(x, z) == 0) == s.is_empty, f"criterion 4(1) on {name}"
            assert in_hom_p(x, z, 1) == (len(s.dims) <= 1), f"criterion 4(2) on {name}"
            # (3) shift invariance
            i = rng.randint(-3, 3)
            assert h_value(shift(x, i), z) == h_value(x, z), f"criterion 4(3) on {name}"
            # (4) x + shift(x, i) shifts membership thresholds by |i|
            i = rng.randint(-3, 3)
            y = direct_sum(algebra, [x, shift(x, i)])
            for n in range(0, 4):
                assert in_hom_p(x, z, n) == in_hom_p(y, z, n + abs(i)), (
                    f"criterion 4(4) on {name}"
                )
            # (5) finite powers keep the same support degrees
            y2 = direct_sum(algebra, [x, x])
            s2 = hom_support(y2, z)
            assert set(s2.dims) == set(s.dims), f"criterion 4(5) on {name}"
            assert h_value(y2, z) <= h_value(x, z), f"criterion 4(5) on {name}"
            # (6) cones of maps between add(x) objects stay within reach
            f = random_chain_map(shift(x, -1), x, rng)
            yc = cone(f)
            span = set(s.dims) | {n - 1 for n in s.dims} | {n + 1 for n in s.dims}
            assert set(hom_support(yc, z).dims) <= span, f"criterion 4(6) on {name}"
    print("PASS criterion 4: hom-support properties (1)-(6), 200 samples x 4 algebras")


def test_criterion_5_dual_numbers_profile():
    """k[x]/(x^2): findim 0, every excluded module carries a periodicity
    witness, regularity check flags the algebra, gl.dim undecided at cutoff."""
    a = dual_numbers()
    rep = findim_estimate(a, 3, 8)
    assert rep.best == 0, "criterion 5: findim should be 0"
    assert rep.exhaustive
    assert rep.excluded > 0
    assert rep.excluded == rep.excluded_periodic, (
        "criterion 5: an excluded module lacks a periodicity witness"
    )
    assert proj_dim(a.simple(0), 8).witness == (0, 1), "criterion 5: Omega S != S"
    reg = regularity_check(a, 3, 8)
    assert not reg["regular_up_to_bound"], "criterion 5: should be non-regular"
    assert reg["gl_dim_estimate"] == {"kind": "at_least_cutoff"}
    print("PASS criterion 5: dual-numbers profile (findim 0, periodic, non-regular)")


def test_criterion_6_gldim_bounded_by_inj_dim_of_top():
    """Where inj_dim(top of A) is finite, the gl.dim estimate stays below it."""
    checked = 0
    for name, algebra in (
        ("k", k_algebra()),
        ("a2", a2()),
        ("dual", dual_numbers()),
        ("nakayama3", nakayama3()),
    ):
        simples = [algebra.simple(i) for i in range(algebra.num_vertices)]
        top = direct_sum_modules(algebra, simples)  # A / rad A
        t = inj_dim(top, 8)
        gl = [proj_dim(algebra.simple(i), 8) for i in range(algebra.num_vertices)]
        if t.is_finite:
            assert all(r.is_finite for r in gl), f"criterion 6: gl.dim undecided on {name}"
            est = max(r.value for r in gl)
            assert est <= t.value, f"criterion 6: {est} > {t.value} on {name}"
            checked += 1
    assert checked >= 2
    print(f"PASS criterion 6: gl.dim <= inj_dim(top) on {checked} algebras")


def test_criterion_7_deterministic_reports(tmp_path):
    """Identical seeds produce byte-identical JSON reports."""
    import os

    data = os.path.join(os.path.dirname(__file__), os.pardir, "data")
    for cmd in (
        ["findim", os.path.join(data, "a2.json"), "--max-dim", "2", "--seed", "11",
         "--verify-theorem", "--samples", "5"],
        ["pd", os.path.join(data, "nakayama3.json"), os.path.join(data, "a2_s0.json")],
        ["ghost", os.path.join(data, "a2.json"), os.path.join(data, "a2_s0.json"), "2"],
    ):
        if cmd[0] == "pd":
            cmd = ["pd", os.path.join(data, "nakayama3.json")]
            mfile = tmp_path / "m.json"
            mfile.write_text(json.dumps({"dim_vector": [1, 0, 0], "arrows": {}}))
            cmd.append(str(mfile))
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(cmd + ["--json", str(out)]) in (0, 3)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"criterion 7: {cmd[0]} report not stable"
    print("PASS criterion 7: byte-identical reports under repeated seeds")
