"""skewstab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a skewstab checkout.  Each measured repetition runs
perfbench/rep.py in a fresh interpreter with PYTHONPATH=src, one at a
time (closed loop, one client, one thread).  Repetitions are started
until the next one would end after --seconds; there is at least one.

One set-up-only interpreter runs first, untimed, so that the first
repetition does not pay for compiling the modules or reading them from
disk.  solve_s and peak_rss_mb are medians over the repetitions, and
setup_s the median over at least MIN_SETUPS set-ups (repetitions plus
set-up-only interpreters).

--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of BENCHMARK.json as medians over the traced ones,
except the stage times and orbit.step_ms, which come from the untraced
ones; trace.overhead_s is the traced minus the untraced median solve_s.
The spans of the last traced repetition are left in
.perfbench_out/<workload>.spans.jsonl.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  `attempted` counts output checks run and `failed`
those that did not hold (fail_ratio = failed / attempted).  The runner
exits 2 without a result when the checkout lacks the package, and 1 when
a repetition crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_SETUPS = 7
REP_TIMEOUT_S = 150


def _machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _child(args, out_dir: Path, traced: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--out-dir", str(out_dir), "--spawn-ns", str(time.time_ns())]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: repetition exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_checkout() -> str | None:
    for rel in ("src/skewstab/cli.py", "configs/doubling_rotation.json",
                "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded; the workloads are fixed inputs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    problem = _check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _child(args, out_dir, False, True)  # warm-up, not counted
        reps, traced = _measure(args, out_dir)
        if (out_dir / "spans.jsonl").is_file():
            os.replace(out_dir / "spans.jsonl",
                       OUT_ROOT / f"{args.workload}.spans.jsonl")
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(_child(args, out_dir, False, True)["setup_s"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(len(r["checks"]) for r in reps + traced)
    failed = sum(not ok for r in reps + traced for ok in r["checks"].values())
    counts = [r["counts"] for r in reps + traced]
    if len(counts) > 1 and counts[0]:  # step counts must repeat exactly
        attempted += 1
        failed += any(c != counts[0] for c in counts)
    digests = [r["digest"] for r in reps + traced if r.get("digest")]
    if digests:  # consecutive artifacts must be byte-identical
        attempted += len(digests) - 1
        failed += sum(a != b for a, b in zip(digests, digests[1:]))

    if args.trace:
        names = spec["per_layer"]
        values = {m["name"]: statistics.median(
            r["layers"].get(m["name"], 0) for r in traced) for m in names}
        for m in names:
            if m["name"] in reps[0]["stages"]:
                values[m["name"]] = statistics.median(
                    r["stages"][m["name"]] for r in reps)
        if "orbit.steps" in reps[0]["counts"]:
            values["orbit.step_ms"] = 1000.0 * values["orbit.invariant_s"] \
                / reps[0]["counts"]["orbit.steps"]
        values["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in traced)
            - statistics.median(r["solve_s"] for r in reps))
    else:
        names = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(r["solve_s"] for r in reps),
                  "peak_rss_mb": statistics.median(
                      r["peak_rss_mb"] for r in reps)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "repetitions": len(reps),
                      "traced_repetitions": len(traced),
                      "setups": len(setups), "machine": _machine(),
                      "solve_s": [r["solve_s"] for r in reps],
                      "traced_solve_s": [r["solve_s"] for r in traced],
                      "setup_s": setups}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _measure(args, out_dir: Path) -> tuple[list[dict], list[dict]]:
    """Untraced and (with --trace 1) traced repetitions within --seconds."""
    reps: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()
    n = 0
    while True:
        use_trace = bool(args.trace) and n % 2 == 1
        (traced if use_trace else reps).append(
            _child(args, out_dir, use_trace))
        n += 1
        elapsed = time.perf_counter() - t_start
        enough = not args.trace or traced  # reps[0] is never traced
        if enough and elapsed * (n + 1) / n > args.seconds:
            return reps, traced


if __name__ == "__main__":
    sys.exit(main())
