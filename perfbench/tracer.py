"""Span recorder that wraps findim's layers from outside the library.

`install(tracer)` replaces each layer's public functions, and a few hot
methods, with timing wrappers.  It patches every binding site: the defining
module, the package namespace, and every other findim module that imported
the name directly (`findim.modules.rref` as well as `findim.linalg.rref`).

Each call records a span: name, start, end, parent span and item id.
Only calls made while `Tracer.active` is true are recorded: the worker
clears it while the harness itself varies inputs and checks answers, so
the figures hold set-up and the timed items alone.
Spans stay in memory, in flat arrays, and `Tracer.write` stores them when
the run ends.  Self time is a span's duration minus the time its child
spans cover.

Matrix construction and products run millions of times per run.  They are
timed and counted like any other call, so their time is their own and not
their caller's, but they keep no individual span record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "linalg",
    "algebras",
    "modules",
    "complexes",
    "invariants",
    "certificates",
    "serialize",
    "cli",
)

# (class path, method, span name, keep individual spans)
METHODS = (
    ("linalg.Matrix", "__init__", "linalg.Matrix", False),
    ("linalg.Matrix", "__matmul__", "linalg.matmul", False),
    ("complexes.HomComplex", "__init__", "complexes.HomComplex", True),
    ("complexes.HomComplex", "diff_matrix", "complexes.HomComplex.diff_matrix", True),
)

MAX_SPANS = 3_000_000  # about 84 MB of span arrays; later spans are only counted

SPAN_FIELDS = ("name", "parent", "item", "start_ns", "end_ns")


class Tracer:
    """Per-name call counts and self times, outcome counters, and spans."""

    def __init__(self):
        self.names: list = []
        self.calls = array("q")
        self.self_ns = array("q")
        self.counters: dict = {}
        self.item = -1
        self.active = True
        self.dropped = 0
        self._ids: dict = {}
        self._stack: list = []  # open frames: [start_ns, child_ns, span index, enclosing span]
        self._open = -1  # innermost open span that is kept
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("q")
        self.span_end = array("q")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _enter(self, nid: int, keep: bool) -> list:
        idx = -1
        if keep:
            if len(self.span_start) < MAX_SPANS:
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(self._open)
                self.span_item.append(self.item)
                self.span_start.append(0)
                self.span_end.append(0)
            else:
                self.dropped += 1
        frame = [0, 0, idx, self._open]
        if idx >= 0:
            self._open = idx
        self._stack.append(frame)
        frame[0] = time.perf_counter_ns()
        return frame

    def _exit(self, nid: int, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        self.calls[nid] += 1
        self.self_ns[nid] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        idx = frame[2]
        if idx >= 0:
            self.span_start[idx] = frame[0]
            self.span_end[idx] = end
            self._open = frame[3]

    def wrap(self, name: str, fn, keep: bool = True, observe=None):
        """A wrapper around `fn` that records one span per call.

        `observe(args, kwargs, result, exc)` sees each call's outcome.
        """
        nid = self.name_id(name)
        enter, leave = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not self.active:
                    yield from fn(*args, **kwargs)
                    return
                it = fn(*args, **kwargs)
                produced = 0
                while True:
                    frame = enter(nid, keep)
                    try:
                        value = next(it)
                    except StopIteration:
                        leave(nid, frame)
                        break
                    leave(nid, frame)
                    produced += 1
                    yield value
                if observe:
                    observe(args, kwargs, produced, None)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = enter(nid, keep)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                leave(nid, frame)
                if observe:
                    observe(args, kwargs, None, exc)
                raise
            leave(nid, frame)
            if observe:
                observe(args, kwargs, result, None)
            return result

        return traced

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_ns[nid] / 1e9 if nid is not None else 0.0

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self.self_ns[i] for i, n in enumerate(self.names) if n.startswith(prefix)
        ) / 1e9

    def write(self, path) -> None:
        """A JSON header line, then the span arrays in SPAN_FIELDS order."""
        header = {
            "names": self.names,
            "fields": list(SPAN_FIELDS),
            "count": len(self.span_start),
            "dropped": self.dropped,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_item, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path) -> tuple:
    """(header, {field: array}) as written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for fld, code in zip(SPAN_FIELDS, "iiiqq"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols[fld] = arr
    return header, cols


def _observers(tracer: Tracer) -> dict:
    """Outcome counters read from arguments and return values."""
    from findim.invariants import ResolutionCutoffError

    def iso(args, kwargs, result, exc):
        if exc is None:
            tracer.count(
                "modules.modules_isomorphic."
                + {True: "true", False: "false", None: "undecided"}[result]
            )

    def homotopy(args, kwargs, result, exc):
        if exc is None:
            tracer.count("complexes.null_homotopy." + ("none" if result is None else "found"))

    def resolve(args, kwargs, result, exc):
        if isinstance(exc, ResolutionCutoffError):
            tracer.count("invariants.resolve_to_perfect.cutoff_retries")

    def enumerate_(args, kwargs, produced, exc):
        algebra, max_total = args[0], args[1] if len(args) > 1 else kwargs["max_total_dim"]
        tracer.count("certificates.enumerate_modules.candidates", enumeration_candidates(algebra, max_total))
        tracer.count("certificates.enumerate_modules.accepted", produced)

    def cert(args, kwargs, result, exc):
        if exc is None:
            tracer.count("certificates.cert_steps.count", len(result.steps))

    def dumps(args, kwargs, result, exc):
        if exc is None:
            tracer.count("serialize.bytes.count", len(result))

    def rref(args, kwargs, result, exc):
        m = args[0]
        tracer.count("linalg.rref.cells", m.rows * m.cols)

    def matrix(args, kwargs, result, exc):
        tracer.count("linalg.Matrix.cells", args[2] * args[3])  # (self, field, rows, cols, data)

    return {
        "modules.modules_isomorphic": iso,
        "complexes.null_homotopy": homotopy,
        "invariants.resolve_to_perfect": resolve,
        "certificates.enumerate_modules": enumerate_,
        "certificates.certificate_for_hom_p": cert,
        "certificates.certificate_from_resolution": cert,
        "serialize.dumps": dumps,
        "linalg.rref": rref,
        "linalg.Matrix": matrix,
    }


def enumeration_candidates(algebra, max_total: int) -> int:
    """Sum over dimension vectors of total <= max_total of p^(matrix entries)."""
    p = algebra.field.p
    arrows = [(a.source, a.target) for a in algebra.quiver.arrows]
    nv = algebra.num_vertices

    def vectors(prefix, left):
        if len(prefix) == nv:
            yield prefix
            return
        for d in range(left + 1):
            yield from vectors(prefix + (d,), left - d)

    return sum(p ** sum(dims[s] * dims[t] for s, t in arrows) for dims in vectors((), max_total))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the METHODS, at every binding site."""
    mods = {layer: importlib.import_module("findim." + layer) for layer in LAYERS}
    observers = _observers(tracer)
    replace: dict = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replace[id(obj)] = tracer.wrap(name, obj, observe=observers.get(name))
    for cls_path, meth, name, keep in METHODS:
        layer, cls_name = cls_path.split(".")
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], keep=keep, observe=observers.get(name)))
    findim_mods = [importlib.import_module("findim")] + list(mods.values())
    for mod in findim_mods:
        for attr, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


# -- per-layer metrics ---------------------------------------------------------

COUNTED = ("linalg.Matrix", "linalg.rref", "linalg.matmul", "linalg.kernel_basis", "linalg.solve")
TIMED = (
    "modules.minimal_resolution",
    "modules.projective_cover",
    "modules.kernel_of",
    "modules.hom_space",
    "modules.modules_isomorphic",
    "complexes.HomComplex.diff_matrix",
    "complexes.cohomology",
    "complexes.induced_cohomology_zero",
    "complexes.null_homotopy",
    "complexes.chain_map_basis",
    "complexes.cone",
    "invariants.hom_support",
    "invariants.h_value",
    "invariants.in_hom_p",
    "invariants.amplitude",
    "invariants.random_chain_map",
    "certificates.certificate_for_hom_p",
    "certificates.certificate_from_resolution",
    "certificates.minimize_perfect",
    "certificates.verify_certificate",
    "certificates.ghost_maps",
    "cli.main",
)
SELF_ONLY = (
    "algebras.build_algebra",
    "serialize.certificate_to_json",
    "serialize.certificate_from_json",
    "serialize.dumps",
)
# work counters: lower means less work for the same answers
COUNTERS = (
    "linalg.rref.cells",
    "linalg.Matrix.cells",
    "invariants.resolve_to_perfect.cutoff_retries",
)
# outcome counters: fixed by the answers, which the fingerprints guard, so
# they are reported beside the per-layer metrics and not compared
OUTCOMES = (
    "modules.modules_isomorphic.true",
    "modules.modules_isomorphic.false",
    "modules.modules_isomorphic.undecided",
    "complexes.null_homotopy.found",
    "complexes.null_homotopy.none",
    "certificates.cert_steps.count",
    "certificates.enumerate_modules.candidates",
    "certificates.enumerate_modules.accepted",
    "serialize.bytes.count",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """{metric name: (value, unit)} for every per-layer metric."""
    out = {}
    for name in COUNTED + ("complexes.HomComplex",):
        out[name + ".calls"] = (tr.call_count(name), "count")
    for name in TIMED:
        out[name + ".calls"] = (tr.call_count(name), "count")
        out[name + ".self_s"] = (tr.self_s(name), "s")
    for name in SELF_ONLY:
        out[name + ".self_s"] = (tr.self_s(name), "s")
    for key in COUNTERS:
        out[key] = (tr.counters.get(key, 0), "count")
    out["linalg.self_s"] = (tr.layer_self_s("linalg"), "s")
    out["invariants.homcomplex_per_query"] = (
        _ratio(tr.call_count("complexes.HomComplex"), tr.call_count("invariants.hom_support")),
        "ratio",
    )
    return out


def outcome_counts(tr: Tracer) -> dict:
    """{counter name: (value, unit)} for the OUTCOMES, plus the enumeration's accept ratio."""
    out = {key: (tr.counters.get(key, 0), "count") for key in OUTCOMES}
    out["certificates.enumerate_modules.accept_ratio"] = (
        _ratio(out["certificates.enumerate_modules.accepted"][0],
               out["certificates.enumerate_modules.candidates"][0]),
        "ratio",
    )
    return out
