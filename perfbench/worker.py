"""One benchmark process: a set-up probe, one pass, or the reference values.

Run by ``run.py`` in a fresh interpreter each time, so no lru_cache inside
qplab carries over from one pass to the next, just as for a CLI user.

    python3 perfbench/worker.py setup     <src>
    python3 perfbench/worker.py pass      <src> <workload> <seed> <scale> <trace> <spans>
    python3 perfbench/worker.py probe     <src> <workload> <trace>
    python3 perfbench/worker.py reference <src> <workload> <seed> <scales>

The result is one JSON object on the last line of standard output.

Next to every timing the worker reports a speed probe: how long a short
fixed loop takes just before and just after the timed region.  The sandbox
this benchmark was built on slows down by 30-75% for tens of seconds at a
time; ``run.py`` scales each timing by the probe to take that out.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

from tracing import Tracer


def spin() -> float:
    """Seconds a short fixed pure-Python loop takes on the current CPU."""
    t0 = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    return perf_counter() - t0


def speed_probe() -> float:
    """The loop's time now; the faster of two runs, so an interrupt does not count."""
    return min(spin(), spin())


def _import_qplab(src: str) -> tuple[float, float]:
    """Import the package and its CLI from `src`.

    Returns the seconds taken and the mean speed probe around the import.
    """
    sys.path.insert(0, src)
    before = speed_probe()
    t0 = perf_counter()
    import qplab.cli  # noqa: F401  (what the `qplab` command imports)
    elapsed = perf_counter() - t0
    after = speed_probe()
    import qplab

    where = os.path.realpath(os.path.dirname(qplab.__file__))
    if where != os.path.realpath(os.path.join(src, "qplab")):
        raise SystemExit(f"qplab was imported from {where}, not from {src}")
    return elapsed, (before + after) / 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:160]


def _run(op):
    """Time one op; digest its output outside the timed region.

    Returns (seconds, digest, error, bytes printed).
    """
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        return perf_counter() - t0, None, _describe(exc), 0
    elapsed = perf_counter() - t0
    printed = len(out[1].encode()) if op.kind == "cli" else 0
    try:
        return elapsed, op.digest(out), None, printed
    except Exception as exc:
        return elapsed, None, "unreadable output: " + _describe(exc), printed


def _run_all(ops, trace: bool):
    """Run the ops in order, inside the tracer's wrappers when tracing.

    Each result is (name, seconds, probe, digest, error, bytes printed),
    where probe is the mean of the speed probes before and after the op.
    """
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    results = []
    try:
        before = speed_probe()
        for op in ops:
            seconds, digest, error, printed = _run(op)
            after = speed_probe()
            results.append((op.name, seconds, (before + after) / 2, digest, error, printed))
            before = after
    finally:
        if tracer:
            tracer.restore()
    return results, tracer


def run_pass(src: str, workload: str, seed: int, scale: float, trace: bool, spans: str) -> dict:
    setup_s, setup_probe = _import_qplab(src)
    import workloads

    results, tracer = _run_all(workloads.operations(workload, seed, scale), trace)
    doc = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "ops": [r[:5] for r in results],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        summary = tracer.summary()
        summary["metrics"]["cli.main.output_bytes"] = sum(r[5] for r in results)
        doc["trace"] = summary
        tracer.write_spans(spans)
    return doc


def run_probes(src: str, workload: str, trace: bool) -> dict:
    """The known-defect probes, cold: a warm count cache changes their outcome."""
    _import_qplab(src)
    import workloads

    results, tracer = _run_all(workloads.probes(workload), trace)
    doc = {"ops": [r[:5] for r in results]}
    if tracer:
        doc["trace"] = tracer.summary()
    return doc


def run_reference(src: str, workload: str, seed: int, scales: list[float]) -> dict:
    _import_qplab(src)
    import qplab
    import workloads

    doc = {"version": qplab.__version__}
    for scale in scales:
        doc[str(scale)] = [op.reference() for op in workloads.operations(workload, seed, scale)]
    doc["probes"] = [op.reference() for op in workloads.probes(workload)]
    return doc


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    if mode == "setup":
        setup_s, setup_probe = _import_qplab(src)
        doc = {"setup_s": setup_s, "setup_probe": setup_probe}
    elif mode == "pass":
        workload, seed, scale, trace, spans = argv[2:7]
        doc = run_pass(src, workload, int(seed), float(scale), trace == "1", spans)
    elif mode == "probe":
        doc = run_probes(src, argv[2], argv[3] == "1")
    elif mode == "reference":
        workload, seed, scales = argv[2:5]
        doc = run_reference(src, workload, int(seed), [float(s) for s in scales.split(",")])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
