"""Command-line front end.

Subcommands operate on JSON files (see serialize.py for the schemas) and
emit a JSON report plus a short human-readable rendering of it.  Reports
embed the tool version, the seed, and the run configuration; two runs with
the same inputs and seed are byte-identical.

Exit codes: 0 success; 2 parse error; 3 computation budget exceeded;
4 input complex not perfect.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .complexes import NotPerfectError
from .modules import minimal_resolution, proj_dim
from .invariants import ResolutionCutoffError, amplitude, invariants_report
from .certificates import (
    BudgetExceededError,
    certificate_for_hom_p,
    findim_estimate,
    finitistic_generator,
    ghost_pd_oracle,
    theorem_samples,
    verify_certificate,
)
from .serialize import (
    ParseError,
    algebra_from_json,
    certificate_from_json,
    complex_from_json,
    dumps,
    module_from_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_NOT_PERFECT = 4


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e


def _load_algebra(path: str, field_override):
    doc = _load_json(path)
    if field_override is not None:
        doc = dict(doc)
        doc["field"] = field_override
    return algebra_from_json(doc)


def _parse_field_flag(text):
    if text is None:
        return None
    if text == "Q":
        return "Q"
    if text.startswith("gfp:"):
        try:
            return {"gfp": int(text.split(":", 1)[1])}
        except ValueError:
            pass
    raise ParseError(f"bad --field value {text!r} (use Q or gfp:p)")


def _emit(report: dict, args) -> None:
    payload = dumps(report)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    print(payload)


def _envelope(args, command: str, **config) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "config": config,
    }


def cmd_pd(args) -> int:
    algebra = _load_algebra(args.algebra, _parse_field_flag(args.field))
    m = module_from_json(algebra, _load_json(args.module))
    res = minimal_resolution(m, args.cutoff)
    report = _envelope(args, "pd", cutoff=args.cutoff)
    report["status"] = res.status.to_json()
    report["describe"] = res.status.describe()
    report["resolution_terms"] = [list(t.dims) for t in res.terms]
    _emit(report, args)
    print(f"proj_dim: {res.status.describe()}")
    return EXIT_OK


def cmd_findim(args) -> int:
    if args.verify_theorem and args.samples < 1:
        raise ParseError(f"--samples must be >= 1 with --verify-theorem, got {args.samples}")
    algebra = _load_algebra(args.algebra, _parse_field_flag(args.field))
    if algebra.field.is_rational:
        raise ParseError("findim enumerates modules and needs a finite field (use --field gfp:p)")
    fr = findim_estimate(algebra, args.max_dim, args.cutoff, budget=args.budget)
    report = _envelope(
        args, "findim", max_dim=args.max_dim, cutoff=args.cutoff, budget=args.budget
    )
    report["findim"] = fr.to_json()
    d = fr.best
    gen = finitistic_generator(algebra, d)
    amp = amplitude(gen)
    report["generator_amplitude"] = amp
    lines = [
        f"findim estimate: {d} (exhaustive: {fr.exhaustive}, "
        f"modules: {fr.modules_seen}, excluded: {fr.excluded})",
        f"amplitude of A + shift(A, {d}): {amp}",
    ]
    if args.verify_theorem:
        samples = failures = max_level = 0
        for y, width in theorem_samples(algebra, d, args.samples, args.cutoff, args.seed):
            samples += 1
            cert = certificate_for_hom_p(y, d, args.cutoff)
            ok = verify_certificate(cert, y, algebra).ok
            if not ok or cert.level > width + d:
                failures += 1
            max_level = max(max_level, cert.level)
        report["theorem_suite"] = {
            "amp_ok": amp == d,
            "samples": samples,
            "failures": failures,
            "max_level": max_level,
        }
        lines.append(
            f"theorem suite: {samples} samples, {failures} failures, "
            f"max level {max_level}"
        )
    _emit(report, args)
    for ln in lines:
        print(ln)
    return EXIT_BUDGET if not fr.exhaustive else EXIT_OK


def cmd_invariants(args) -> int:
    algebra = _load_algebra(args.algebra, _parse_field_flag(args.field))
    x = complex_from_json(algebra, _load_json(args.complex_x))
    y = complex_from_json(algebra, _load_json(args.complex_y)) if args.complex_y else None
    try:
        inv = invariants_report(x, y)
    except NotPerfectError:
        print("error: x is not a complex of projectives", file=sys.stderr)
        return EXIT_NOT_PERFECT
    report = _envelope(args, "invariants")
    report.update(inv)
    _emit(report, args)
    print(f"support: {inv['support']}  h: {inv['h']}  amplitude: {inv['amplitude']}")
    return EXIT_OK


def cmd_verify_certificate(args) -> int:
    algebra = _load_algebra(args.algebra, _parse_field_flag(args.field))
    cert_doc = _load_json(args.certificate)
    target = (
        complex_from_json(algebra, _load_json(args.target)) if args.target else None
    )
    cert = certificate_from_json(algebra, cert_doc, target)
    result = verify_certificate(cert, cert.compare.target, algebra)
    report = _envelope(args, "verify-certificate")
    report["ok"] = result.ok
    report["diagnostics"] = result.diagnostics
    _emit(report, args)
    for d in result.diagnostics:
        print(d)
    return EXIT_OK if result.ok else 1


def cmd_ghost(args) -> int:
    algebra = _load_algebra(args.algebra, _parse_field_flag(args.field))
    m = module_from_json(algebra, _load_json(args.module))
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    verdict = ghost_pd_oracle(m, args.n, args.cutoff)
    status = proj_dim(m, args.cutoff)
    consistent = None
    if status.is_finite:
        consistent = verdict == (status.value <= args.n)
    elif status.kind == "infinite_periodic":
        consistent = verdict is False
    report = _envelope(args, "ghost", n=args.n, cutoff=args.cutoff)
    report["null_homotopic"] = verdict
    report["pd"] = status.to_json()
    report["consistent"] = consistent
    _emit(report, args)
    word = "null-homotopic" if verdict else "not null-homotopic"
    print(f"ghost composite: {word}; pd {status.describe()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="findim",
        description="Homological invariants of finite-dimensional path algebras.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, cutoff: bool = False):
        p.add_argument("--field", help="override the algebra's field: Q or gfp:p")
        if cutoff:
            p.add_argument("--cutoff", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="also write the JSON report to this path")

    p = sub.add_parser("pd", help="projective dimension of a module")
    p.add_argument("algebra")
    p.add_argument("module")
    common(p, cutoff=True)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("findim", help="small finitistic dimension estimate")
    p.add_argument("algebra")
    p.add_argument("--max-dim", type=int, default=4, dest="max_dim")
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--verify-theorem", action="store_true", dest="verify_theorem")
    p.add_argument("--samples", type=int, default=50)
    common(p, cutoff=True)
    p.set_defaults(func=cmd_findim)

    p = sub.add_parser("invariants", help="Hom-support, h, amplitude")
    p.add_argument("algebra")
    p.add_argument("complex_x")
    p.add_argument("complex_y", nargs="?")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify-certificate", help="check a generation-level certificate")
    p.add_argument("algebra")
    p.add_argument("certificate")
    p.add_argument("target", nargs="?")
    common(p)
    p.set_defaults(func=cmd_verify_certificate)

    p = sub.add_parser("ghost", help="ghost-map oracle for projective dimension")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("n", type=int)
    common(p, cutoff=True)
    p.set_defaults(func=cmd_ghost)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process: parsing builds a new
    namespace each time and leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # only the subcommands that take these options have them
        if getattr(args, "cutoff", 1) < 1:
            raise ParseError(f"--cutoff must be >= 1, got {args.cutoff}")
        if getattr(args, "max_dim", 0) < 0:
            raise ParseError(f"--max-dim must be >= 0, got {args.max_dim}")
        if getattr(args, "budget", 1) < 1:
            raise ParseError(f"--budget must be >= 1, got {args.budget}")
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ResolutionCutoffError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
