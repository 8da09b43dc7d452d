"""The four benchmark workloads.

Each workload builds its algebras and inputs in `setup`, then runs items.
An item is `prepare(i)` (untimed: pick the input and vary it), `run(prep)`
(timed: library calls only) and `check(prep, result)` (untimed: checks that
do not go through the code under test).

The inputs form a fixed catalogue: full module enumerations, and samples
drawn with a fixed sampler seed.  Every seed therefore measures the same
mix, which keeps runs at different seeds comparable.  The seed drives the
randomness of each item, from (seed, item index) alone: a change of basis
of every module, a shift of every complex, the chain maps and the shifts of
the Hom-support battery, and which level a tampered certificate flips.  So
no two items hand the library the same matrices, and a memo keyed on "the
same input again" gets no reuse from walking the catalogue more than once.
The iso-invariant part of each answer (its key) must not depend on the
seed, and a repeated catalogue entry must give the key of its first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from findim import algebras as falg
from findim import certificates as fcert
from findim import cli as fcli
from findim import complexes as fcx
from findim import invariants as finv
from findim import linalg as flin
from findim import modules as fmod
from findim import serialize as fser

# Canonical answer encoding, bound before any tracing wrapper is installed
# so that fingerprinting never shows up in the serialize layer's metrics.
canonical = fser.dumps

RESOLVE_CUTOFF = 8
CATALOGUE = "catalogue"  # the sampler seed of the fixed input catalogue


def rng_for(seed: int, *key) -> random.Random:
    """A generator that depends only on the seed and the key."""
    return random.Random("/".join(str(k) for k in (seed,) + key))


# -- algebras ----------------------------------------------------------------


def field_of(name: str):
    return flin.QQ if name == "Q" else flin.GF(int(name))


def field_label(fld) -> str:
    return "Q" if fld.p is None else f"GF({fld.p})"


def make_algebra(kind: str, fld):
    """The quivers with relations the workloads run on."""
    Q, R = falg.Quiver, falg.Relation
    if kind == "a2":
        return falg.build_algebra(Q(2, [("a", 0, 1)]), [], fld, 4)
    if kind == "dual":
        q = Q(1, [("x", 0, 0)])
        return falg.build_algebra(q, [R(q, [(1, ["x", "x"])])], fld, 3)
    if kind == "nakayama3":
        q = Q(3, [("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 0)])
        rels = [R(q, [(1, [f"a{k}", f"a{(k + 1) % 3}"])]) for k in range(3)]
        return falg.build_algebra(q, rels, fld, 4)
    if kind.startswith("linear"):
        # A_n linear quiver with rad^2 = 0: gl.dim n - 1
        n = int(kind[len("linear"):])
        q = Q(n, [(f"a{k}", k, k + 1) for k in range(n - 1)])
        rels = [R(q, [(1, [f"a{k}", f"a{k + 1}"])]) for k in range(n - 2)]
        return falg.build_algebra(q, rels, fld, 3)
    raise ValueError(f"unknown algebra {kind!r}")


# -- seeded basis changes, in plain Python arithmetic ---------------------------


def _reduce(p):
    return (lambda x: x % p) if p else (lambda x: x)


def _matmul(a, b, rows, inner, cols, p):
    red = _reduce(p)
    return [[red(sum(a[i][k] * b[k][j] for k in range(inner))) for j in range(cols)] for i in range(rows)]


def _inverse(a, p):
    """Gauss-Jordan inverse over GF(p) (p prime) or Q; None if singular."""
    n = len(a)
    red = _reduce(p)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        r = next((r for r in range(c, n) if red(m[r][c]) != 0), None)
        if r is None:
            return None
        m[c], m[r] = m[r], m[c]
        inv = pow(m[c][c], -1, p) if p else 1 / Fraction(m[c][c])
        m[c] = [red(x * inv) for x in m[c]]
        for r in range(n):
            if r != c and red(m[r][c]) != 0:
                f = m[r][c]
                m[r] = [red(x - f * y) for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _random_invertible(n, p, rng):
    """P L U with unit triangular L, U over {-1, 0, 1}: invertible over any field,
    and over Q its inverse is integral, so entries stay small."""
    red = _reduce(p)
    perm = list(range(n))
    rng.shuffle(perm)
    low = [[1 if i == j else (red(rng.randint(-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (red(rng.randint(-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    g = [_matmul(low, up, n, n, n, p)[perm[i]] for i in range(n)]
    return g, _inverse(g, p)


def conjugate(m, rng):
    """An isomorphic copy of module m: arrow a: i -> j becomes g_j A g_i^-1."""
    alg = m.algebra
    p = alg.field.p
    gs = [_random_invertible(d, p, rng) for d in m.dims]
    mats = {}
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        di, dj = m.dims[i], m.dims[j]
        data = _matmul(gs[j][0], m.arrow_mats[a.id].data, dj, dj, di, p)
        data = _matmul(data, gs[i][1], dj, di, di, p)
        mats[a.id] = flin.Matrix(alg.field, dj, di, data)
    return fmod.Module(alg, m.dims, mats, check=True)


# -- the shared shape of a workload -----------------------------------------------


@dataclass
class Entry:
    """One pool input: the slice it belongs to and the library object."""

    slice: str
    obj: object
    extra: dict = dc_field(default_factory=dict)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, limit=None, workdir=None):
        self.seed = seed
        self.limit = limit
        self.workdir = workdir
        self.pool: list = []
        self.slices: list = []

    def count(self, default: int) -> int:
        """Catalogue samples per slice, shrunk for a smoke run."""
        return default if self.limit is None else min(default, self.limit)

    def sampler(self, *key) -> random.Random:
        return rng_for(CATALOGUE, self.name, *key)

    def item_rng(self, i: int) -> random.Random:
        return rng_for(self.seed, self.name, "item", i)

    def add_slice(self, label: str, fld, kind: str, entries) -> None:
        self.pool.extend(entries)
        self.slices.append({"slice": label, "field": field_label(fld), "kind": kind, "items": len(entries)})

    def shuffle_pool(self) -> None:
        """A fixed order that mixes the slices, the same at every seed."""
        self.sampler("order").shuffle(self.pool)
        if self.limit is not None:
            del self.pool[self.limit:]

    def entry(self, i: int) -> Entry:
        return self.pool[i % len(self.pool)]

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, prep):
        raise NotImplementedError

    def check(self, prep, result):
        """(canonical answer, iso-invariant key, list of problems)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def module_key(m):
    """A sort key made of the module's dims and arrow matrices."""
    return tuple(m.dims), tuple(tuple(map(tuple, m.arrow_mats[a.id].data)) for a in m.algebra.quiver.arrows)


def enumerated(label, alg, max_dim):
    """Every module of total dim <= max_dim, in an order that does not depend
    on the order the library yields them in."""
    return [Entry(label, m) for m in sorted(fcert.enumerate_modules(alg, max_dim), key=module_key)]


def vary(obj, r):
    """A seeded isomorphic copy of a module, or a seeded shift of a complex."""
    if isinstance(obj, fmod.Module):
        return conjugate(obj, r)
    return fcx.shift(obj, r.choice((-2, -1, 1, 2)))


def _vadd(a, b, sign=1):
    return [x + sign * y for x, y in zip(a, b)]


def syzygy_dims(module_dims, terms, proj_dims):
    """Dimension vectors of the syzygies implied by the terms, or a problem.

    Omega^0 = M and Omega^(k+1) = P_k - Omega^k, so the alternating sum of
    the term dimension vectors telescopes (the Euler characteristic).
    """
    problems = []
    syz = [list(module_dims)]
    for k, (dims, verts) in enumerate(terms):
        want = [0] * len(dims)
        for v in verts:
            want = _vadd(want, proj_dims[v])
        if list(dims) != want:
            problems.append(f"P_{k} has dims {list(dims)}, its summands give {want}")
        syz.append(_vadd(dims, syz[-1], -1))
        if min(syz[-1]) < 0:
            problems.append(f"Omega^{k + 1} would have negative dims {syz[-1]}")
    return syz, problems


# -- resolve --------------------------------------------------------------------


class Resolve(Workload):
    name = "resolve"
    why = (
        "minimal_resolution once per module of full enumerations plus GF(257) samples: "
        "iso search dominates with a heavy tail, little same-module reuse"
    )

    def setup(self):
        self.proj_dims = {}
        for kind, fname, max_dim in (("nakayama3", "2", 4), ("dual", "3", 3), ("a2", "3", 4), ("linear4", "2", 4)):
            fld = field_of(fname)
            alg = make_algebra(kind, fld)
            label = f"{kind}/{field_label(fld)}"
            self.add_slice(label, fld, f"enumerated, total dim <= {max_dim}", enumerated(label, alg, max_dim))
            self.proj_dims[label] = [alg.projective(v).dims for v in range(alg.num_vertices)]
        for kind in ("nakayama3", "dual"):
            fld = field_of("257")
            alg = make_algebra(kind, fld)
            label = f"{kind}/{field_label(fld)}"
            n = self.count(60)
            entries = [Entry(label, finv.random_module(alg, self.sampler(label, j))) for j in range(n)]
            self.add_slice(label, fld, "random_module samples", entries)
            self.proj_dims[label] = [alg.projective(v).dims for v in range(alg.num_vertices)]
        self.shuffle_pool()

    def prepare(self, i):
        e = self.entry(i)
        return e, conjugate(e.obj, self.item_rng(i))

    def run(self, prep):
        return fmod.minimal_resolution(prep[1], RESOLVE_CUTOFF)

    def check(self, prep, res):
        e, m = prep
        status = res.status.to_json()
        terms = [(t.dims, verts) for t, verts in zip(res.terms, res.term_verts)]
        syz, problems = syzygy_dims(m.dims, terms, self.proj_dims[e.slice])
        n = len(res.terms)
        zero = [0] * len(m.dims)
        if res.status.kind == "finite":
            if m.is_zero():
                if n:
                    problems.append("zero module with a nonzero resolution")
            elif n != res.status.value + 1 or syz[-1] != zero:
                problems.append(f"Euler characteristic: Omega^{n} has dims {syz[-1]}, pd {res.status.value}")
        elif res.status.kind == "infinite_periodic":
            a, b = res.status.witness
            if not (0 <= a < b == n) or syz[a] != syz[b] or syz[b] == zero:
                problems.append(f"periodicity witness {a, b} against syzygy dims {syz}")
        elif n != RESOLVE_CUTOFF + 1 or zero in syz:
            problems.append(f"cutoff status with {n} terms and syzygy dims {syz}")
        answer = {
            "slice": e.slice,
            "status": status,
            "verts": res.term_verts,
            "diffs": [[fser.matrix_to_json(x) for x in d.mats] for d in res.differentials],
        }
        return answer, {"slice": e.slice, "status": status, "verts": res.term_verts}, problems


# -- ghost ----------------------------------------------------------------------


class Ghost(Workload):
    name = "ghost"
    why = (
        "proj_dim plus ghost_pd_oracle for n = 1..6 per module (the CLI ghost path), on a fixed "
        "sample of 100 enumerated modules: 7+ resolutions of the same module, GF(2) only"
    )
    ns = range(1, 7)
    pass_items = 100  # a fixed sample of the 227 modules, so a run holds three passes

    def setup(self):
        found = []
        for kind in ("a2", "nakayama3"):
            fld = field_of("2")
            alg = make_algebra(kind, fld)
            label = f"{kind}/{field_label(fld)}"
            found.append((label, fld, enumerated(label, alg, 4)))
        total = sum(len(entries) for _, _, entries in found)
        for label, fld, entries in found:
            k = round(self.pass_items * len(entries) / total)
            picked = sorted(self.sampler(label).sample(range(len(entries)), k))
            kind = f"a fixed sample of {k} of the {len(entries)} enumerated modules of total dim <= 4"
            self.add_slice(label, fld, kind, [entries[j] for j in picked])
        self.shuffle_pool()

    prepare = Resolve.prepare

    def run(self, prep):
        m = prep[1]
        pd = fmod.proj_dim(m, 10)
        return pd, [fcert.ghost_pd_oracle(m, n, 16) for n in self.ns]

    def check(self, prep, result):
        pd, oracle = result
        problems = [
            f"oracle says pd <= {n} is {got}, pd is {pd.describe()}"
            for n, got in zip(self.ns, oracle)
            if got != (pd.is_finite and pd.value <= n)
        ]
        answer = {"slice": prep[0].slice, "pd": pd.to_json(), "oracle": oracle}
        return answer, answer, problems


# -- homsupport -----------------------------------------------------------------


def probes(alg):
    """The simples and the free module, as stalk complexes."""
    return [fcx.stalk_complex(alg.simple(i), 0) for i in range(alg.num_vertices)] + [
        finv.algebra_complex(alg)
    ]


class HomSupport(Workload):
    name = "homsupport"
    why = (
        "the Hom-support battery (criterion 4) on random perfect complexes, half over "
        "GF(2) and half over Q: HomComplex rebuilds dominate, modules only in set-up"
    )

    def setup(self):
        n = self.count(40)
        per_alg = []
        for fname in ("2", "Q"):
            for kind in ("a2", "dual", "nakayama3"):
                fld = field_of(fname)
                alg = make_algebra(kind, fld)
                label = f"{kind}/{field_label(fld)}"
                extra = {"alg": alg, "probes": probes(alg)}
                xs = [Entry(label, finv.random_perfect_complex(alg, self.sampler(label, j)), extra) for j in range(n)]
                self.slices.append({"slice": label, "field": field_label(fld), "kind": "random_perfect_complex samples", "items": n})
                per_alg.append(xs)
        # interleave the slices, so a pool cut short for a smoke run holds all six
        self.pool = [xs[j] for j in range(n) for xs in per_alg]
        if self.limit is not None:
            del self.pool[self.limit:]

    def prepare(self, i):
        e = self.entry(i)
        ps = e.extra["probes"]
        r = self.item_rng(i)
        base = r.choice((-2, -1, 1, 2))
        z = ps[(i % len(self.pool)) % len(ps)]
        return e, fcx.shift(e.obj, base), z, base, r.randint(-3, 3), r.randint(-3, 3), r

    def run(self, prep):
        e, x, z, base, i1, i2, r = prep
        alg = e.extra["alg"]
        s = finv.hom_support(x, z)
        out = {"s": s, "h": finv.h_value(x, z), "p1": finv.in_hom_p(x, z, 1)}
        out["h_shift"] = finv.h_value(fcx.shift(x, i1), z)
        y = fcx.direct_sum(alg, [x, fcx.shift(x, i2)])
        out["thresholds"] = [[finv.in_hom_p(x, z, n), finv.in_hom_p(y, z, n + abs(i2))] for n in range(4)]
        y2 = fcx.direct_sum(alg, [x, x])
        out["s2"] = finv.hom_support(y2, z)
        out["h2"] = finv.h_value(y2, z)
        f = finv.random_chain_map(fcx.shift(x, -1), x, r)
        out["s_cone"] = finv.hom_support(fcx.cone(f), z)
        return out

    def check(self, prep, out):
        """Properties (1)-(6) of the Hom-support calculus."""
        s, h = out["s"], out["h"]
        dims = set(s.dims)
        reach = dims | {n - 1 for n in dims} | {n + 1 for n in dims}
        problems = []
        if (h == 0) != s.is_empty:
            problems.append("(1) h = 0 must mean an empty support")
        if out["p1"] != (len(dims) <= 1):
            problems.append("(2) hom^1 membership must mean at most one degree")
        if out["h_shift"] != h:
            problems.append("(3) h must be shift invariant")
        if any(a != b for a, b in out["thresholds"]):
            problems.append("(4) x + shift(x, i) must shift the thresholds by |i|")
        if set(out["s2"].dims) != dims or out["h2"] > h:
            problems.append("(5) x + x must keep the support degrees")
        if not set(out["s_cone"].dims) <= reach:
            problems.append("(6) a cone must stay within one degree of the support")
        answer = {k: v.to_json() if isinstance(v, finv.HomSupport) else v for k, v in out.items()}
        answer["slice"] = prep[0].slice
        # Hom(shift(x, b), shift(z, n)) = Hom(x, shift(z, n - b)): undo the item's shift
        base = prep[3]
        key = {"h": h, "support": {str(n - base): d for n, d in sorted(s.dims.items())}}
        return answer, key, problems


# -- certify --------------------------------------------------------------------


class Certify(Workload):
    name = "certify"
    why = (
        "build a level certificate, write it as JSON, and run the verify-certificate CLI "
        "on it and on a tampered copy: the only workload for certificates, serialize, cli"
    )

    def setup(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="certify-", dir=self.workdir)
        n = self.count(30)
        for kind in ("linear4", "linear5"):
            for fname in ("3", "Q"):
                fld = field_of(fname)
                alg = make_algebra(kind, fld)
                label = f"{kind}/{field_label(fld)}"
                d = alg.num_vertices - 1  # gl.dim of the linear rad^2 = 0 quiver
                path = os.path.join(self.tmp.name, f"{kind}-{fname}.json")
                with open(path, "w") as fh:
                    fh.write(fser.dumps(fser.algebra_to_json(alg)))
                extra = {"alg": alg, "path": path, "d": d}
                mods = [Entry(label, finv.random_module(alg, self.sampler(label, "m", j)), extra) for j in range(n)]
                self.add_slice(label, fld, "random_module samples, resolution certificate", mods)
                cxs = self._filtered(label, alg, d, n, self.sampler(label, "x"), extra)
                self.add_slice(label, fld, "filtered random_perfect_complex samples, hom_p certificate", cxs)
        self.shuffle_pool()

    @staticmethod
    def _filtered(label, alg, d, count, r, extra):
        """Perfect complexes with cohomology width <= 3 and each H^n of pd <= d."""
        out = []
        attempts = 0
        while len(out) < count and attempts < count * 60:
            attempts += 1
            y = finv.random_perfect_complex(alg, r)
            degs = sorted(fcx.cohomology_dims(y))
            width = degs[-1] - degs[0] + 1 if degs else 0
            if width > 3:
                continue
            if any(not fmod.proj_dim(fcx.cohomology(y, n), RESOLVE_CUTOFF).le(d) for n in degs):
                continue
            out.append(Entry(label, y, dict(extra, width=width)))
        return out

    def prepare(self, i):
        e = self.entry(i)
        r = self.item_rng(i)
        return e, vary(e.obj, r), r.random() < 0.5

    def _verify(self, alg_path, text, name):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return fcli.main(["verify-certificate", alg_path, path])

    def run(self, prep):
        e, obj, tamper_step = prep
        if isinstance(obj, fmod.Module):
            cert = fcert.certificate_from_resolution(obj, RESOLVE_CUTOFF)
            target = fcx.stalk_complex(obj, 0)
        else:
            cert = fcert.certificate_for_hom_p(obj, e.extra["d"], RESOLVE_CUTOFF)
            target = obj
        doc = fser.certificate_to_json(cert, target)
        text = fser.dumps(doc)
        rc = self._verify(e.extra["path"], text, "cert.json")
        # tamper: one level, of the last step or of the whole certificate
        if tamper_step and doc["steps"]:
            doc["steps"][-1]["level"] += 1
        else:
            doc["level"] += 1
        rc_bad = self._verify(e.extra["path"], fser.dumps(doc), "tampered.json")
        return cert, text, rc, rc_bad

    def check(self, prep, result):
        e, obj, _ = prep
        cert, text, rc, rc_bad = result
        d = e.extra["d"]
        problems = []
        if rc != 0:
            problems.append(f"verify-certificate exited {rc} on a valid certificate")
        if rc_bad != 1:
            problems.append(f"verify-certificate exited {rc_bad} on a tampered certificate")
        bound = d + 1 if isinstance(obj, fmod.Module) else e.extra["width"] + d
        if cert.level > bound:
            problems.append(f"level {cert.level} above the bound {bound}")
        key = {"slice": e.slice, "level": cert.level, "steps": len(cert.steps), "rc": [rc, rc_bad]}
        answer = dict(key, sha256=hashlib.sha256(text.encode()).hexdigest())
        return answer, key, problems

    def close(self):
        self.tmp.cleanup()


WORKLOADS = {w.name: w for w in (Resolve, Ghost, HomSupport, Certify)}
