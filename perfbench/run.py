"""The qplab benchmark: four workloads, verdict timing end to end, and traced
self time per module.

    python3 perfbench/run.py --workload catalog-deep --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A closed loop runs one pass at a time, each in a fresh
interpreter (at most two processes: this one and the pass), until the next
pass would end after ``--seconds``.  Every op's output is checked against a
reference computed by another route before the passes, outside the timed
region.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from traced passes.  End-to-end timings are "steady":
wall time scaled by a speed probe timed around each timed region, because
the sandbox this was built on changes speed by up to 75% for tens of
seconds.  Human-readable lines come first; the last line of standard output
is one JSON object.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from worker import speed_probe

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog-deep", "catalog-default", "counts-deep", "coeffs-deep")
HALF_ORDER_WORKLOADS = ("catalog-deep", "counts-deep")
PROBE_WORKLOADS = ("counts-deep",)
#: import-only processes after each pass, so set-up samples spread over the
#: run, until there are SETUP_SAMPLES of them
SETUP_PROBES_PER_PASS = 2
SETUP_SAMPLES = 20
#: every run ends well inside the three minutes a run may take
DEADLINE_S = 170.0
#: the speed probe's time on the undisturbed 2-vCPU sandbox the baseline was
#: taken on; timings are reported as if the machine ran at that speed
REFERENCE_PROBE_S = 0.0035
DOUBLING_METRICS = ("series.mul", "qengine.phi21", "qengine.sum_over_smallest",
                    "partitions.family_series")


class ChildFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# child processes

def steady(seconds: float, probe: float) -> float:
    """A timing scaled to the machine speed at which the probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe


def quietest_cpu() -> int | None:
    """The CPU, of those this process may use, that runs a short loop fastest.

    Neighbours on the host slow each vCPU of the sandbox independently, for
    seconds at a time; starting each process on the currently faster one
    takes some of that noise out.  None when there is only one CPU.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    timings = []
    try:
        for cpu in cpus[:8]:
            os.sched_setaffinity(0, {cpu})
            timings.append((speed_probe(), cpu))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(timings)[1]


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(HERE, "out")
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.version = "unknown"
        self.env = dict(os.environ)
        # an order cap would silently shrink every workload
        self.env.pop("QPLAB_MAX_ORDER", None)
        self.env.pop("PYTHONPATH", None)
        self.env["PYTHONHASHSEED"] = "0"

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, *args: str) -> dict:
        """Run worker.py to completion; return its JSON result."""
        timeout = self.remaining()
        if timeout <= 1:
            raise ChildFailed("no time left before the run's deadline")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        cpu = quietest_cpu()
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout, preexec_fn=pin)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{args[0]} process timed out after {timeout:.0f} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise ChildFailed(f"{args[0]} process exited {proc.returncode}: {' | '.join(tail)}")
        return json.loads(lines[-1])

    def setup(self) -> dict:
        return self.child("setup", self.src)

    def one_pass(self, scale: float, trace: bool) -> dict:
        spans = os.path.join(self.out_dir, f"spans-{self.workload}-x{scale}.bin")
        return self.child("pass", self.src, self.workload, str(self.seed), str(scale),
                          "1" if trace else "0", spans)

    def probe(self, tally: "Tally", trace: bool) -> dict:
        """Run the known-defect probes in a cold process, outside the timed passes."""
        if self.workload not in PROBE_WORKLOADS:
            return {}
        doc = self.child("probe", self.src, self.workload, "1" if trace else "0")
        tally.check_probes(doc)
        return doc.get("trace", {})

    def reference(self, scales: list[float]) -> dict:
        doc = self.child("reference", self.src, self.workload, str(self.seed),
                         ",".join(map(str, scales)))
        self.version = doc["version"]
        return doc


# ----------------------------------------------------------------------
# checking and summarising

class Tally:
    """Checks op outputs against the references and pools steady latencies."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: steady latencies (ms) of the full-order ops, pooled over passes
        self.latencies_ms: list[float] = []
        self.probes: dict[str, str] = {}
        self.wrong_probes: list[str] = []

    def check(self, doc: dict, scale: float) -> tuple[float, float]:
        """Record one pass; return its wall and steady time (sums over its ops)."""
        refs = self.references[str(scale)]
        if len(refs) != len(doc["ops"]):
            raise ChildFailed("the pass and the reference disagree on the op list")
        for (name, seconds, probe, digest, error), ref in zip(doc["ops"], refs):
            self.attempted += 1
            ok = error is None and digest == ref
            if scale == 1.0:
                # a failed op counts as beyond any latency limit
                self.latencies_ms.append(steady(seconds, probe) * 1000 if ok else math.inf)
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {error or f'got {digest}, expected {ref}'}")
        ops = doc["ops"]
        return sum(op[1] for op in ops), sum(steady(op[1], op[2]) for op in ops)

    def check_probes(self, doc: dict) -> None:
        for (name, _, _, digest, error), ref in zip(doc["ops"], self.references["probes"]):
            if error is not None:
                self.probes[name] = f"raised {error} (known defect)"
            elif digest == ref:
                self.probes[name] = "correct"
            else:
                self.probes[name] = f"wrong value: got {digest}, expected {ref}"
                self.wrong_probes.append(name)

    def fail_pass(self, scale: float, reason: str) -> None:
        n = len(self.references[str(scale)])
        self.attempted += n
        self.failed += n
        if scale == 1.0:
            self.latencies_ms += [math.inf] * n
        self.failures.append(f"a pass of {n} ops failed: {reason}")

    @property
    def correct(self) -> bool:
        return not self.failures and not self.wrong_probes


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between the closest ranks.

    Interpolating keeps the figure from jumping from one op to the next
    when two ops' timings cross.  A failed op (infinite latency) at either
    rank makes the percentile infinite.
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = ordered[math.floor(pos)], ordered[math.ceil(pos)]
    if hi == math.inf:
        return math.inf
    return lo + (hi - lo) * (pos - math.floor(pos))


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def _git_sha(root: str) -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# the two kinds of run

def _timed_passes(runner: Runner, seconds: float, cycle) -> None:
    """Repeat `cycle` while the next one is expected to end within `seconds`."""
    begin = time.monotonic()
    walls = []
    while True:
        t0 = time.monotonic()
        cycle()
        walls.append(time.monotonic() - t0)
        spent = time.monotonic() - begin
        if spent + statistics.median(walls) > seconds:
            break
        if runner.remaining() < 2 * max(walls):
            break


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, Tally, dict]:
    t0 = time.monotonic()
    tally = Tally(runner.reference([1.0]))
    reference_s = time.monotonic() - t0
    setup_s, passes, rss = [], [], []

    def cycle():
        try:
            doc = runner.one_pass(1.0, trace=False)
        except ChildFailed as exc:
            tally.fail_pass(1.0, str(exc))
            return
        passes.append(tally.check(doc, 1.0))
        rss.append(doc["peak_rss_mb"])
        docs = [doc]
        if len(setup_s) < SETUP_SAMPLES:
            docs += [runner.setup() for _ in range(SETUP_PROBES_PER_PASS)]
        setup_s.extend(steady(d["setup_s"], d["setup_probe"]) for d in docs)

    _timed_passes(runner, seconds, cycle)
    runner.probe(tally, trace=False)
    lat = tally.latencies_ms
    metrics = {
        "setup_s": (statistics.median(setup_s) if setup_s else math.inf, "s"),
        "pass_s": (statistics.median(p[1] for p in passes) if passes else math.inf, "s"),
        "op_ms_p50": (percentile(lat, 0.5), "ms"),
        "op_ms_p90": (percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(rss) if rss else math.inf, "MB"),
    }
    info = {
        "passes": len(passes),
        "pass_wall_s": [round(p[0], 4) for p in passes],
        "pass_steady_s": [round(p[1], 4) for p in passes],
        "op_samples": len(lat),
        "setup_samples": len(setup_s),
        "reference_s": reference_s,
    }
    return metrics, tally, info


_UNITS = {"calls": "count", "self_s": "s", "coeff_mults": "count", "repeat_ratio": "ratio",
          "errors": "count", "listed": "count", "output_bytes": "bytes",
          "doubling_ratio": "ratio"}


def per_layer(runner: Runner, seconds: float) -> tuple[dict, Tally, dict]:
    half = runner.workload in HALF_ORDER_WORKLOADS
    scales = [1.0, 0.5] if half else [1.0]
    tally = Tally(runner.reference(scales))
    plain, traced, traced_half = [], [], []

    kinds = [(1.0, False, plain), (1.0, True, traced)]
    if half:
        kinds.append((0.5, True, traced_half))

    def cycle():
        for scale, trace, into in kinds:
            try:
                doc = runner.one_pass(scale, trace)
            except ChildFailed as exc:
                tally.fail_pass(scale, str(exc))
                continue
            into.append((*tally.check(doc, scale), doc.get("trace")))

    _timed_passes(runner, seconds, cycle)
    probe_trace = runner.probe(tally, trace=True)
    if not plain or not traced or (half and not traced_half):
        raise ChildFailed("a traced run needs one untraced and one traced pass at least")

    def med(rows, part, key):
        return statistics.median(row[2][part][key] for row in rows)

    metrics = {}
    for key in sorted(traced[0][2]["metrics"]):
        if key == "series.coeff_bits_max":
            metrics[key] = (max(row[2]["metrics"][key] for row in traced), "bits")
        else:
            metrics[key] = (med(traced, "metrics", key), _UNITS[key.rsplit(".", 1)[1]])
    # the probes' raises belong to the layer's error count
    for key, value in probe_trace.get("metrics", {}).items():
        if key.endswith(".errors"):
            metrics[key] = (metrics[key][0] + value, "count")
    # growth per doubling of the order, from inclusive span time
    for name in DOUBLING_METRICS:
        ratio = 0.0
        if half and med(traced_half, "inclusive_s", name) > 0:
            ratio = med(traced, "inclusive_s", name) / med(traced_half, "inclusive_s", name)
        metrics[f"{name}.doubling_ratio"] = (ratio, "ratio")
    traced_pass = statistics.median(row[1] for row in traced)
    plain_pass = statistics.median(row[1] for row in plain)
    metrics["trace.overhead_ratio"] = (traced_pass / plain_pass, "ratio")
    # wall time here: the spans' self times are wall time too
    metrics["trace.unattributed_s"] = (
        statistics.median(row[0] - row[2]["self_total_s"] for row in traced), "s")
    info = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "half_order_passes": len(traced_half),
        "spans_per_traced_pass": traced[0][2]["spans"],
        "traced_pass_s": traced_pass,
        "untraced_pass_s": plain_pass,
    }
    return metrics, tally, info


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qplab", "__init__.py")):
        print("error: run from the root of a qplab checkout (no src/qplab here)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    os.makedirs(runner.out_dir, exist_ok=True)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, tally, info = measure(runner, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance["loadavg_end"] = _loadavg()

    provenance["qplab_version"] = runner.version
    print(f"# provenance {json.dumps(provenance)}")
    print(f"# run {json.dumps(info)}")
    failed_ops = tally.failed / tally.attempted
    for name, (value, unit) in sorted({**metrics, "failed_ops": (failed_ops, "share")}.items()):
        print(f"{args.workload:<16} {name:<42} {value:>14.6g} {unit}")
    for name, outcome in tally.probes.items():
        print(f"# probe {name}: {outcome}")
    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "provenance": provenance, "run": info, "probes": tally.probes,
              "failures": tally.failures}
    with open(os.path.join(runner.out_dir, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
