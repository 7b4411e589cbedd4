"""Run every workload of the benchmark over several seeds and summarize.

Run from the repository root:

    python3 bench/record.py --runs 10 --out bench/results/BENCH_1.json

For each workload this makes ``--runs`` untraced runs (seeds 1, 2, ...) and
one traced run (seed 1), each a fresh ``bench/run.py`` process.  It prints
every end-to-end metric's median and quartile spread (the distance between
the first and third quartiles as a share of the median) and the traced
per-layer metrics, and with ``--out`` writes all of it, with each run's
environment and host load, as JSON.  The exit code is 1 if any run fails or
reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process: its result object plus its environment and summary lines."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    env = json.loads(lines[0].removeprefix("env "))
    result.update(seed=seed, env=env, summary=lines[1:-1], exit_code=done.returncode)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"seconds": args.seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [one_run(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced = one_run(workload, 1, args.seconds, 1)
        ok &= all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced])
        end_to_end = {}
        print(f"{workload}: {sum(r['attempted'] for r in runs)} ops, "
              f"{sum(r['failed'] for r in runs)} failed")
        for name, unit in ((m["name"], m["unit"]) for m in SPEC["end_to_end"]):
            stats = spread([r["metrics"][name]["value"] for r in runs])
            end_to_end[name] = {"unit": unit, **stats}
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  (spread above a third of the bound)"
            print(f"  {name:<12} {stats['median']:>12.5g} {unit:<4} spread {stats['spread']:.3f}{flag}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "runs": [{k: r[k] for k in ("seed", "attempted", "failed", "env", "summary")}
                     for r in runs + [traced]],
        }
    report["env"] = {k: v for k, v in runs[0]["env"].items() if k not in ("seed", "host_before", "host_after")}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
