"""One workload in one fresh process; run.py starts it and reads its last line.

Modes:
  setup    build the algebras and inputs, report the set-up time;
  measure  set up, then run whole passes of the catalogue back to back,
           stopping at the pass boundary nearest to --seconds, after at
           least three passes; the rate and latency quantiles are the
           medians of the per-pass figures;
  pass     set up, then run exactly one pass; with --trace 1 every layer
           is wrapped by the span recorder.

The fingerprints cover the answers of the first pass.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_PASS_ITEMS = 100  # at least 10 samples beyond each pass's p90
MIN_PASSES = 3  # the timings are medians over passes


def import_library() -> None:
    """Import findim from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import findim

    if not os.path.abspath(findim.__file__).startswith(src + os.sep):
        raise ImportError(f"findim was imported from {findim.__file__}, not from {src}")


def pass_figures(latencies_ns) -> dict:
    """Rate and latency quantiles of one pass."""
    ms = [ns / 1e6 for ns in latencies_ns]
    q = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    return {"items_per_s": len(ms) / (sum(ms) / 1e3), "item_ms_p50": q[4], "item_ms_p90": q[8]}


def run_items(wl, mode, seconds, items, tracer) -> dict:
    from workloads import canonical

    pool = len(wl.pool)
    fp_answers, fp_keys = hashlib.sha256(), hashlib.sha256()
    first_pass = {}
    passes = []
    latencies = []
    failed = 0
    problems = []
    start = time.perf_counter()
    i = 0
    while True:
        if i % pool == 0 and i:
            passes.append(pass_figures(latencies[-pool:]))
        if items is not None:
            if i >= items:
                break
        elif mode == "pass":
            if i >= pool:
                break
        elif i % pool == 0 and len(passes) >= MIN_PASSES:
            # whole passes only, so every pass measures the same mix
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 >= seconds:
                break
        if tracer:
            tracer.active = False
        prep = wl.prepare(i)
        if tracer:
            tracer.item, tracer.active = i, True
        t0 = time.perf_counter_ns()
        try:
            result, error = wl.run(prep), None
        except Exception:
            result, error = None, traceback.format_exc()
        latencies.append(time.perf_counter_ns() - t0)
        if tracer:
            tracer.item, tracer.active = -1, False
        if error is None:
            answer, key, found = wl.check(prep, result)
        else:
            answer = key = {"error": error.strip().splitlines()[-1]}
            found = [error]
        key_text = canonical(key)
        if i < pool:
            first_pass[i] = key_text
            fp_answers.update((canonical(answer) + "\n").encode())
            fp_keys.update((key_text + "\n").encode())
        elif first_pass[i % pool] != key_text:
            found.append(f"answer differs from the first pass: {key_text}")
        if found:
            failed += 1
            if len(problems) < 5:
                problems.append({"item": i, "slice": wl.entry(i).slice, "problems": found})
        i += 1
    wall = time.perf_counter() - start
    if not passes:  # a smoke run shorter than one pass
        passes.append(pass_figures(latencies))
    out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    out.update({
        "items": i,
        "failed": failed,
        "item_s": sum(latencies) / 1e9,
        "wall_s": wall,
        "pass_items": min(i, pool),
        "per_pass": passes,
        "fingerprint": {"items": min(i, pool), "answers": fp_answers.hexdigest(), "keys": fp_keys.hexdigest()},
        "problems": problems,
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "pass"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--items", type=int, help="run exactly this many items on a shrunk pool (smoke runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import tracer as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.items, OUT)
    t0 = time.perf_counter()
    try:
        wl.setup()
        if args.items is None and len(wl.pool) < MIN_PASS_ITEMS:
            raise ValueError(f"a pass of {args.workload} has {len(wl.pool)} items, fewer than {MIN_PASS_ITEMS}")
        out = {"setup_s": time.perf_counter() - t0, "why": wl.why, "slices": wl.slices}
        if args.mode != "setup":
            out.update(run_items(wl, args.mode, args.seconds, args.items, tr))
            out["total_s"] = out["setup_s"] + out["wall_s"]
    finally:
        wl.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr:
        out["layers"] = tracing.layer_metrics(tr)
        out["outcomes"] = tracing.outcome_counts(tr)
        path = os.path.join(OUT, f"spans-{args.workload}.bin")
        tr.write(path)
        out["spans"] = {"path": os.path.relpath(path, ROOT), "count": len(tr.span_start), "dropped": tr.dropped}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
