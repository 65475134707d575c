"""One workload in a fresh interpreter: set up, run whole passes, report JSON.

Reads a JSON payload on standard input (the operation texts and engine
arguments, the source directory, the mode) and writes one JSON object to
standard output.  Nothing outside the standard library is imported before
``treeorbits``, so the import time it reports is the package's own.

Modes:
  setup  import the package and parse every input, then report the times;
  run    also run passes over the operation list, in list order, until
         ``seconds`` have passed, and report per-operation
         times, the outputs of the first pass and the peak resident memory;
         with ``trace`` set, wrap the layer boundaries and report per-layer
         metrics as well.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from array import array

ENGINES = {
    "decide_sweep": "decide",
    "certify_ladder": "certify_density",
    "orbit_census": "enumerate_orbits",
}


def encode(result) -> object:
    """The parts of an engine's answer that the reference checks read."""
    if hasattr(result, "status") and hasattr(result, "trace"):
        return result.status
    if hasattr(result, "ranks"):
        return [result.status, list(result.ranks), result.variety_dim]
    return [result.point_count, result.orbit_count]


def main() -> int:
    payload = json.load(sys.stdin)
    src = payload["src"]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import treeorbits
    t1 = time.perf_counter()
    numpy_loaded = "numpy" in sys.modules
    if not os.path.abspath(treeorbits.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"treeorbits imported from {treeorbits.__file__}, not from {src}", file=sys.stderr)
        return 3
    ops = payload["ops"]
    insts = [treeorbits.parse_instance(op["text"]) for op in ops]
    t2 = time.perf_counter()
    from hostspeed import EVERY_S, HostSpeed

    speed = HostSpeed()
    out = {"import_s": t1 - t0, "parse_ms": (t2 - t1) * 1e3, "setup_s": t2 - t0,
           "numpy_loaded": int(numpy_loaded)}
    if payload["mode"] == "setup":
        speed.sample(15)
        out["speed_factor"] = speed.factors()[0]
        json.dump(out, sys.stdout)
        return 0

    tracer = None
    if payload["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    engine = getattr(treeorbits, ENGINES[payload["workload"]])
    calls = [(inst, op["kwargs"]) for inst, op in zip(insts, ops)]
    n = len(calls)
    sample_op, sample_s, sample_at = array("l"), array("d"), array("l")
    first: list = [None] * n
    stable = True
    pass_s: list[float] = []
    seconds = payload["seconds"]
    at = speed.sample()
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_pass()
        p0 = time.perf_counter()
        for i, (inst, kwargs) in enumerate(calls):
            a = time.perf_counter()
            try:
                res = encode(engine(inst, **kwargs))
            except Exception as exc:  # a raising operation is a failed one, not a crash
                res = {"error": f"{type(exc).__name__}: {exc}"}
            d = time.perf_counter() - a
            sample_op.append(i)
            sample_s.append(d)
            sample_at.append(at)
            if not pass_s:
                first[i] = res
            elif res != first[i]:
                stable = False
            if time.perf_counter() - speed.last >= EVERY_S:
                at = speed.sample()
        pass_s.append(time.perf_counter() - p0)
    speed.sample()
    peak_kb = _peak_rss_kb()
    factor = speed.factors()
    scaled: list[list[float]] = [[] for _ in range(n)]
    raw: list[list[float]] = [[] for _ in range(n)]
    for i, d, c in zip(sample_op, sample_s, sample_at):
        scaled[i].append(d * factor[c])
        raw[i].append(d)
    est = [statistics.median(x) for x in scaled]
    est_raw = [statistics.median(x) for x in raw]
    run_factor = statistics.median(factor)
    out.update(passes=len(pass_s), pass_s=pass_s, op_s=est, op_raw_s=est_raw,
               speed_factor=run_factor, results=first, deterministic=stable,
               peak_rss_kb=peak_kb)
    if tracer is not None:
        passes = [tracer.pass_totals(i) for i in range(len(pass_s))]
        metrics, repeat = layer_metrics(passes, run_factor)
        out.update(layers=metrics, counts_repeat=repeat, missing=tracer.missing)
        if payload.get("trace_path"):
            with open(payload["trace_path"], "w") as fh:
                json.dump({"workload": payload["workload"], "seed": payload["seed"],
                           "passes": passes, "spans_of_first_pass": tracer.spans(0)}, fh)
    json.dump(out, sys.stdout)
    return 0


def _peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
