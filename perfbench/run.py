"""findim benchmark: four closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --workload all --seed 0 --record

Each workload runs in fresh processes: one client, one thread, items back to
back, no warm-up.  With --trace 0 the workload is set up 3 to 9 times
(a set-up-only process before the measuring one, the measuring one, and
set-up-only processes after it) and the median set-up time is reported; the measuring
process runs at least three whole passes of the catalogue, for about
--seconds, and reports the medians of the per-pass rates and latencies.  With --trace 1 one pass runs once plainly and once under
the span recorder, and the per-layer metrics come from the second.

Before the last line, one JSON detail line per workload gives every
metric with its unit, fail_ratio with its base, the slices, the fingerprint
check and the environment.  The last line is the result:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("resolve", "ghost", "homsupport", "certify")
DEFAULT_SEED = 0
# set-ups per run: at least 3, and up to 9 while they add up to less than 1 s
SETUP_RUNS = (3, 9, 1.0)
DEADLINE_S = 170  # one workload must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child(deadline, workload, mode, seed, seconds=0.0, items=None, trace=0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if items is not None:
        cmd += ["--items", str(items)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{workload}/{mode}: no time left")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{workload}/{mode}: timed out after {timeout:.0f} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload}/{mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_fingerprint(workload, seed, fp, stored, unchecked) -> dict:
    """Compare with the stored fingerprints.

    The keys (iso-invariant answers) do not depend on the seed and are
    checked at every seed; the full answers, witnesses included, only at
    the seed they were recorded with.  A first pass with another number of
    items than the recorded one is a mismatch: the catalogue changed.  Only
    a smoke run (--items) on its cut pool, or a --record run, is unchecked.
    """
    if unchecked:
        return dict(fp, status="unchecked")
    want = stored["workloads"].get(workload)
    ok = want is not None and fp["items"] == want["items"] and fp["keys"] == want["keys"]
    if ok and seed == stored["seed"]:
        ok = fp["answers"] == want["answers"]
    return dict(fp, status="match" if ok else "mismatch")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name, args, deadline, stored) -> dict:
    if args.trace:
        plain = child(deadline, name, "pass", args.seed, items=args.items)
        traced = child(deadline, name, "pass", args.seed, items=args.items, trace=1)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["total_s"] - plain["total_s"], "unit": "s"}
        runs = [plain, traced]
        main = traced
        extra = {"spans": traced["spans"], "untraced_s": plain["total_s"], "traced_s": traced["total_s"],
                 "outcomes": {k: {"value": v, "unit": u} for k, (v, u) in traced["outcomes"].items()}}
    else:
        # one set-up before the measuring process and the rest after it, so
        # the median does not rest on one moment of the machine
        least, most, enough_s = SETUP_RUNS
        setups = [child(deadline, name, "setup", args.seed, items=args.items)["setup_s"]]
        main = child(deadline, name, "measure", args.seed, args.seconds, items=args.items)
        setups.append(main["setup_s"])
        while len(setups) < least or (len(setups) < most and sum(setups) < enough_s):
            setups.append(child(deadline, name, "setup", args.seed, items=args.items)["setup_s"])
        runs = [main]
        metrics = {
            "items_per_s": {"value": main["items_per_s"], "unit": "1/s"},
            "item_ms_p50": {"value": main["item_ms_p50"], "unit": "ms"},
            "item_ms_p90": {"value": main["item_ms_p90"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
        extra = {"setup_runs_s": setups, "pass_items": main["pass_items"], "per_pass": main["per_pass"],
                 "wall_s": main["wall_s"]}
    attempted = sum(r["items"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    unchecked = args.items is not None or args.record
    fingerprints = [check_fingerprint(name, args.seed, r["fingerprint"], stored, unchecked) for r in runs]
    fail_ratio = {"value": failed / attempted, "unit": "ratio", "items": attempted}
    detail = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "why": main["why"],
        "slices": main["slices"],
        "items": main["items"],
        "fail_ratio": fail_ratio,
        "metrics": metrics if args.trace else dict(metrics, fail_ratio=fail_ratio),
        "fingerprint": fingerprints[-1],
        "problems": [p for r in runs for p in r["problems"]],
        **extra,
    }
    correct = failed == 0 and all(f["status"] != "mismatch" for f in fingerprints)
    return {"detail": detail, "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def record(results, seed) -> None:
    stored = {"seed": seed, "workloads": {}}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as fh:
            stored = json.load(fh)
    for r in results:
        fp = r["detail"]["fingerprint"]
        stored["workloads"][r["detail"]["workload"]] = {
            k: fp[k] for k in ("items", "answers", "keys")
        }
    with open(FINGERPRINTS, "w") as fh:
        json.dump(stored, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="findim benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="smoke run: exactly this many items on a shrunk pool")
    ap.add_argument("--record", action="store_true",
                    help=f"store the fingerprints of this run (seed {DEFAULT_SEED}, full size)")
    args = ap.parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.items is not None or args.trace):
        ap.error(f"--record needs --seed {DEFAULT_SEED}, --trace 0 and no --items")

    stored = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(FINGERPRINTS) and not args.record:
        with open(FINGERPRINTS) as fh:
            stored = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            r = run_workload(name, args, time.monotonic() + DEADLINE_S, stored)
            results.append(r)
            print(json.dumps(r["detail"], sort_keys=True), flush=True)
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if args.record:
        if not all(r["failed"] == 0 for r in results):
            print("not recording: some items failed their checks", file=sys.stderr)
            return 1
        record(results, args.seed)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['detail']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
