"""Benchmark of the three treeorbits engines; see README.md in this directory.

    python3 perfbench/run.py --workload decide_sweep --seed 1 --seconds 30 --trace 0

Builds the workload's operation list from the seed, times set-up in fresh
interpreters, runs the workload in its own single-threaded worker process,
checks every output against the reference computations and prints, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``).  Exits non-zero without that line when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh-interpreter set-ups per run, after one uncounted warm-up
# Children compile the package from source on every import and write no
# bytecode caches into the checkout, whatever the calling environment says.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONPATH": "", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    pass


def child(payload: dict, timeout: float) -> dict:
    """Run worker.py on the payload in a fresh interpreter and return its JSON."""
    env = {**os.environ, **CHILD_ENV}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(payload),
                          capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    src = ROOT / "src"
    if not (src / "treeorbits" / "__init__.py").is_file():
        raise BenchError(f"no treeorbits package under {src}")
    reference.self_check()

    ops = inputs.make_ops(args.workload, args.seed)
    base = {"src": str(src), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops": [{"text": op["text"], "kwargs": op["kwargs"]} for op in ops]}
    child({**base, "mode": "setup"}, timeout=120)  # warm-up: brings the files into the page cache
    setups = [child({**base, "mode": "setup"}, timeout=120) for _ in range(SETUP_PROBES)]
    trace_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    run = child({**base, "mode": "run", "trace_path": str(trace_path or "")},
                timeout=args.seconds + 120)
    setups.append({k: run[k] for k in ("import_s", "parse_ms", "setup_s", "numpy_loaded",
                                       "speed_factor")})

    bad = getattr(checks, args.workload)(ops, run["results"])
    unexpected = {i: f for i, f in bad.items() if f[0] not in checks.KNOWN_FAULTS}
    correct = not unexpected and run["deterministic"]
    passes = run["passes"]
    est = run["op_s"]
    n = len(ops)
    end_to_end = {
        "setup_s": metric(statistics.median(s["setup_s"] * s["speed_factor"] for s in setups), "s"),
        "ops_per_s": metric(n / sum(est), "1/s"),
        "p50_ms": metric(statistics.median(est) * 1e3, "ms"),
        "p90_ms": metric(statistics.quantiles(est, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(run["peak_rss_kb"] / 1024, "MB"),
        "decided": metric(checks.decided_per_pass(args.workload, run["results"]), "count"),
    }

    print(f"workload {args.workload}: seed {args.seed}, {n} operations per pass, "
          f"{passes} passes in {sum(run['pass_s']):.1f} s "
          f"(pass median {statistics.median(run['pass_s']):.2f} s), trace {args.trace}")
    raw = run["op_raw_s"]
    print(f"host speed factor {run['speed_factor']:.3f}; unscaled: ops_per_s {n / sum(raw):.4g}, "
          f"p50_ms {statistics.median(raw) * 1e3:.4g}, "
          f"p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.4g}, setup_s "
          f"{statistics.median(s['setup_s'] for s in setups):.4g}")
    for i in sorted(bad):
        kind, reason = bad[i]
        print(f"failed [{kind}] {ops[i]['text']} {ops[i]['kwargs'] or ''}: {reason}")
    if not run["deterministic"]:
        print("outputs differ between passes")
    if args.trace:
        layers = run["layers"]
        units = {spec["name"]: spec["unit"] for spec in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: metric(layers[name], units[name]) for name in layers if name in units}
        metrics["import_s"] = metric(
            statistics.median(s["import_s"] * s["speed_factor"] for s in setups), "s")
        metrics["parsing.parse_ms"] = metric(
            statistics.median(s["parse_ms"] * s["speed_factor"] for s in setups), "ms")
        metrics["import.numpy_loaded"] = metric(run["numpy_loaded"], "count")
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchError(f"per-layer metrics without a value: {missing}")
        print(f"traced: ops_per_s {end_to_end['ops_per_s']['value']:.1f}, "
              f"counts repeat across passes: {run['counts_repeat']}, "
              f"missing boundaries: {run['missing'] or 'none'}, spans in {trace_path}")
    else:
        metrics = end_to_end
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    record = {"correct": correct, "attempted": passes * n, "failed": passes * len(bad),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(
        {**record, "failures": [[ops[i]["text"], *bad[i]] for i in sorted(bad)],
         "setups": setups, "pass_s": run["pass_s"], "op_s": est}, indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, AssertionError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
