"""JSON interchange for algebras, modules, complexes, and certificates.

Schemas (all exact; rationals are encoded as "a/b" strings, GF(p) scalars
as plain ints):

* algebra:     {"field": "Q" | {"gfp": p}, "vertices": v,
                "arrows": [{"id": s, "from": i, "to": j}],
                "relations": [[{"coeff": c, "path": [arrow ids]}, ...]],
                "max_len": n}
* module:      {"dim_vector": [...], "arrows": {arrow-id: [[row-major]]}}
* complex:     {"terms": {degree: module | {"proj": [multiplicities]}},
                "differentials": {degree: [per-vertex matrices]}}
* chain map:   {degree: [per-vertex matrices]}     (homotopies likewise)
* certificate: {"generator": "A", "level": n, "steps": [...],
                "compare": {"map": chain-map}}
  where each step is one of
    {"leaf": {"summand": i, "shift": k}, "object": complex}
    {"sum": [indices], "object": complex}
    {"cone": {"u": i, "v": j, "map": chain-map}, "object": complex}
    {"retract": {"z": i, "p": m, "s": m, "h": m}, "object": complex}

Every other number (vertex counts and indices, max_len, gfp, dimension
vectors, multiplicities, certificate integers) is a JSON integer; degree
keys are str(n).  `dumps` is canonical (sorted keys, fixed separators),
so identical data always produces byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .linalg import GF, QQ, Field, Matrix
from .algebras import BudgetExceededError, FDAlgebra, Quiver, Relation, build_algebra
from .modules import Module, ModuleMap, projsum_module
from .complexes import ChainMap, Complex, Homotopy
from .certificates import (
    ConeStep,
    LeafStep,
    RetractStep,
    SumStep,
    ThickCertificate,
)


class ParseError(ValueError):
    """An input document does not match its schema."""


# Size budget of a module read from a document, "proj" terms included: the
# cells of its arrow matrices and of one square matrix per fiber, checked
# from the dimension vector before anything is allocated.
MAX_MODULE_CELLS = 2**22


def _int(v, what: str) -> int:
    """A JSON integer; floats, booleans and strings are refused."""
    if type(v) is not int:
        raise ParseError(f"bad {what} {v!r}: expected an integer")
    return v


def _degree(key) -> int:
    """A degree key, as str(n) writes the degree n: "+0", "-0", " 0", "00"
    and "1_0", which int() would read, are refused."""
    if not (isinstance(key, str) and key.removeprefix("-").isdecimal() and str(int(key)) == key):
        raise ParseError(f"bad degree key {key!r}: expected an integer written as str(n)")
    return int(key)


def _check_module_size(algebra: FDAlgebra, dims: List[int]) -> None:
    cells = sum(d * d for d in dims) + sum(
        dims[a.target] * dims[a.source] for a in algebra.quiver.arrows
    )
    if cells > MAX_MODULE_CELLS:
        raise BudgetExceededError(
            f"a module of dimension vector {dims} needs {cells} matrix cells, "
            f"more than the budget of {MAX_MODULE_CELLS}"
        )


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- scalars and matrices ----------------------------------------------------


def scalar_to_json(field: Field, x):
    if field.is_rational:
        return str(x) if x.denominator != 1 else str(x.numerator)
    return x


def scalar_from_json(field: Field, v):
    """An int or an "a/b" string as an element of the field.

    JSON floats and booleans are refused with a parse error naming the
    kinds of scalar a document may hold (Field.coerce refuses them too).
    """
    if isinstance(v, (bool, float)):
        raise ParseError(f"bad scalar {v!r}: expected an integer or an 'a/b' string")
    try:
        return field.coerce(v)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar {v!r}: {e}") from e


def matrix_to_json(m: Matrix) -> List[List]:
    return [[scalar_to_json(m.field, x) for x in row] for row in m.data]


def matrix_from_json(field: Field, rows: int, cols: int, data) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"expected {rows} matrix rows, got {data!r}")
    if not all(isinstance(r, list) for r in data):
        raise ParseError(f"expected each matrix row to be a list, got {data!r}")
    try:
        return Matrix(field, rows, cols, [[scalar_from_json(field, x) for x in r] for r in data])
    except ValueError as e:
        raise ParseError(str(e)) from e


# -- fields and algebras -----------------------------------------------------


def field_to_json(field: Field):
    return "Q" if field.is_rational else {"gfp": field.p}


def field_from_json(doc) -> Field:
    if doc == "Q":
        return QQ
    if isinstance(doc, dict) and "gfp" in doc:
        try:
            return GF(_int(doc["gfp"], '"gfp"'))
        except ValueError as e:
            raise ParseError(str(e)) from e
    raise ParseError(f"bad field descriptor {doc!r}")


def algebra_to_json(a: FDAlgebra) -> dict:
    return {
        "field": field_to_json(a.field),
        "vertices": a.num_vertices,
        "arrows": [
            {"id": ar.id, "from": ar.source, "to": ar.target} for ar in a.quiver.arrows
        ],
        "relations": [
            [
                {
                    "coeff": scalar_to_json(a.field, coeff),
                    "path": [a.quiver.arrows[k].id for k in arrows],
                }
                for coeff, arrows in rel.terms
            ]
            for rel in a.relations
        ],
        "max_len": a.max_len,
    }


def algebra_from_json(doc: dict) -> FDAlgebra:
    try:
        field = field_from_json(doc["field"])
        quiver = Quiver(
            _int(doc["vertices"], '"vertices"'),
            [
                (ar["id"], _int(ar["from"], 'arrow "from"'), _int(ar["to"], 'arrow "to"'))
                for ar in doc.get("arrows", [])
            ],
        )
        relations = [
            Relation(
                quiver,
                [
                    (scalar_from_json(field, t["coeff"]), list(t["path"]))
                    for t in rel
                ],
            )
            for rel in doc.get("relations", [])
        ]
        return build_algebra(quiver, relations, field, _int(doc["max_len"], '"max_len"'))
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"bad algebra document: {e}") from e


# -- modules -----------------------------------------------------------------


def module_to_json(m: Module) -> dict:
    return {
        "dim_vector": list(m.dims),
        "arrows": {
            a.id: matrix_to_json(m.arrow_mats[a.id]) for a in m.algebra.quiver.arrows
        },
    }


def module_from_json(algebra: FDAlgebra, doc: dict) -> Module:
    try:
        dims = [_int(d, "dim_vector entry") for d in doc["dim_vector"]]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad module document: {e}") from e
    if len(dims) != algebra.num_vertices or any(d < 0 for d in dims):
        raise ParseError(
            f"bad dim_vector {dims}: expected {algebra.num_vertices} non-negative integers"
        )
    _check_module_size(algebra, dims)
    arrows_doc = doc.get("arrows", {})
    if not isinstance(arrows_doc, dict):
        raise ParseError(f"bad module document: arrows must be an object, got {arrows_doc!r}")
    known = {a.id for a in algebra.quiver.arrows}
    unknown = sorted(k for k in arrows_doc if k not in known)
    if unknown:
        raise ParseError(f"bad module document: unknown arrow id(s) {unknown}")
    mats = {}
    for a in algebra.quiver.arrows:
        if a.id in arrows_doc:
            mats[a.id] = matrix_from_json(
                algebra.field, dims[a.target], dims[a.source], arrows_doc[a.id]
            )
    try:
        return Module(algebra, dims, mats, check=True)
    except ValueError as e:
        raise ParseError(str(e)) from e


# -- complexes ---------------------------------------------------------------


def _mults_to_verts(algebra: FDAlgebra, mults: List[int]):
    nv = algebra.num_vertices
    if not (
        isinstance(mults, list)
        and len(mults) == nv
        and all(type(k) is int and k >= 0 for k in mults)
    ):
        raise ParseError(
            f'bad "proj" multiplicities {mults!r}: expected {nv} non-negative integers'
        )
    # the fiber of Ae_i at v has one basis vector per path class i -> v
    dims = [
        sum(k * len(algebra.basis_by_pair.get((i, v), ())) for i, k in enumerate(mults))
        for v in range(nv)
    ]
    _check_module_size(algebra, dims)
    verts = []
    for v, k in enumerate(mults):
        verts.extend([v] * k)
    return tuple(verts)


def _verts_to_mults(verts, num_vertices: int) -> List[int]:
    mults = [0] * num_vertices
    for v in verts:
        mults[v] += 1
    return mults


def complex_to_json(x: Complex) -> dict:
    terms: Dict[str, object] = {}
    for n, m in x.terms.items():
        verts = x.proj_verts.get(n) if x.proj_verts is not None else None
        if verts is not None and tuple(sorted(verts)) == tuple(verts):
            terms[str(n)] = {"proj": _verts_to_mults(verts, x.algebra.num_vertices)}
        else:
            terms[str(n)] = module_to_json(m)
    return {"terms": terms, "differentials": _maps_to_json(x.diffs)}


def complex_from_json(algebra: FDAlgebra, doc: dict) -> Complex:
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("terms"), dict)
        and isinstance(doc.get("differentials", {}), dict)
    ):
        raise ParseError('bad complex document: expected {"terms": {...}, "differentials": {...}}')
    terms: Dict[int, Module] = {}
    pv: Dict[int, tuple] = {}
    all_proj = True

    def ends(n):
        for end in (n, n + 1):
            if end not in terms:
                raise ParseError(f"differential at degree {n}: no term at degree {end}")
        return terms[n], terms[n + 1]

    try:
        for key, tdoc in doc["terms"].items():
            n = _degree(key)
            if isinstance(tdoc, dict) and "proj" in tdoc:
                verts = _mults_to_verts(algebra, tdoc["proj"])
                terms[n] = projsum_module(algebra, verts)
                pv[n] = verts
            else:
                terms[n] = module_from_json(algebra, tdoc)
                all_proj = False
        diffs = _maps_from_json(algebra, doc.get("differentials", {}), ends, "complex")
        x = Complex(algebra, terms, diffs, proj_verts=pv if all_proj else None)
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"bad complex document: {e}") from e
    for n, d in x.diffs.items():
        if not d.commutes():
            raise ParseError(f"differential at degree {n} is not a module map")
    return x


# -- chain maps and homotopies -----------------------------------------------


def _maps_to_json(maps: Dict[int, ModuleMap]) -> dict:
    """The {degree: [one matrix per vertex]} document of module maps, as
    `_maps_from_json` reads it."""
    return {str(n): [matrix_to_json(m) for m in g.mats] for n, g in maps.items()}


def chain_map_to_json(f: ChainMap) -> dict:
    return _maps_to_json(f.comps)


def _maps_from_json(algebra: FDAlgebra, doc, ends, what: str) -> Dict[int, ModuleMap]:
    """The module maps of a {degree: [one matrix per vertex]} document.

    `ends(n)` gives the source and target modules of the map in degree n;
    `what` names the document in error messages.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"bad {what} document: expected an object, got {doc!r}")
    nv = algebra.num_vertices
    maps: Dict[int, ModuleMap] = {}
    try:
        for key, mats_doc in doc.items():
            n = _degree(key)
            src, tgt = ends(n)
            if not isinstance(mats_doc, list) or len(mats_doc) != nv:
                raise ParseError(
                    f"bad {what} document: degree {n} needs a list of {nv} matrices, "
                    f"one per vertex, got {mats_doc!r}"
                )
            mats = [
                matrix_from_json(algebra.field, tgt.dims[v], src.dims[v], mats_doc[v])
                for v in range(nv)
            ]
            maps[n] = ModuleMap(src, tgt, mats, check=False)
    except (TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"bad {what} document: {e}") from e
    return maps


def chain_map_from_json(
    source: Complex, target: Complex, doc: dict, check: bool = True
) -> ChainMap:
    comps = _maps_from_json(
        source.algebra, doc, lambda n: (source.term(n), target.term(n)), "chain map"
    )
    f = ChainMap(source, target, comps, check=False)
    if check and not f.commutes():
        raise ParseError("chain map does not commute with the differentials")
    return f


def homotopy_to_json(h: Homotopy) -> dict:
    return _maps_to_json(h.maps)


def homotopy_from_json(source: Complex, target: Complex, doc: dict) -> Homotopy:
    maps = _maps_from_json(
        source.algebra, doc, lambda n: (source.term(n), target.term(n - 1)), "homotopy"
    )
    return Homotopy(source, target, maps)


# -- certificates ------------------------------------------------------------


def certificate_to_json(cert: ThickCertificate, target: Complex) -> dict:
    steps = []
    for step in cert.steps:
        entry = {"object": complex_to_json(step.obj), "level": step.level}
        if isinstance(step, LeafStep):
            entry["leaf"] = {"summand": step.summand, "shift": step.shift}
        elif isinstance(step, SumStep):
            entry["sum"] = list(step.parts)
        elif isinstance(step, ConeStep):
            entry["cone"] = {
                "u": step.u,
                "v": step.v,
                "map": chain_map_to_json(step.map),
            }
        elif isinstance(step, RetractStep):
            entry["retract"] = {
                "z": step.z,
                "p": chain_map_to_json(step.p),
                "s": chain_map_to_json(step.s),
                "h": homotopy_to_json(step.h),
            }
        else:
            raise ValueError("unknown step kind")
        steps.append(entry)
    return {
        "generator": cert.generator,
        "level": cert.level,
        "steps": steps,
        "compare": chain_map_to_json(cert.compare),
        "target": complex_to_json(target),
    }


def certificate_from_json(
    algebra: FDAlgebra, doc: dict, target: Complex = None
) -> ThickCertificate:
    try:
        steps = []
        zero = Complex(algebra, {}, {}, proj_verts={}, check=False)
        for idx, entry in enumerate(doc["steps"]):
            obj = complex_from_json(algebra, entry["object"])
            level = _int(entry["level"], "step level")
            if "leaf" in entry:
                leaf = entry["leaf"]
                steps.append(
                    LeafStep(
                        _int(leaf["summand"], "leaf summand"),
                        _int(leaf["shift"], "leaf shift"),
                        obj,
                        level,
                    )
                )
            elif "sum" in entry:
                steps.append(SumStep([_int(j, "sum part") for j in entry["sum"]], obj, level))
            elif "cone" in entry:
                u = _int(entry["cone"]["u"], "cone reference")
                v = _int(entry["cone"]["v"], "cone reference")
                if not (0 <= u < idx and 0 <= v < idx):
                    raise ParseError(f"step {idx}: cone reference out of range")
                cm = chain_map_from_json(
                    steps[u].obj, steps[v].obj, entry["cone"]["map"], check=False
                )
                steps.append(ConeStep(u, v, cm, obj, level))
            elif "retract" in entry:
                z = _int(entry["retract"]["z"], "retract reference")
                if not (0 <= z < idx):
                    raise ParseError(f"step {idx}: retract reference out of range")
                p = chain_map_from_json(steps[z].obj, obj, entry["retract"]["p"], check=False)
                s = chain_map_from_json(obj, steps[z].obj, entry["retract"]["s"], check=False)
                h = homotopy_from_json(obj, obj, entry["retract"]["h"])
                steps.append(RetractStep(z, p, s, h, obj, level))
            else:
                raise ParseError(f"step {idx}: unknown step kind")
        final = steps[-1].obj if steps else zero
        if target is None:
            target = complex_from_json(algebra, doc["target"])
        compare = chain_map_from_json(final, target, doc["compare"], check=False)
        return ThickCertificate(
            str(doc["generator"]), steps, _int(doc["level"], "certificate level"), compare
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"bad certificate document: {e}") from e
