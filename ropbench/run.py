#!/usr/bin/env python3
"""ropforge benchmark: three workloads driven through ``ropforge.cli.main``.

Run from the repository root::

    python3 ropbench/run.py --workload scan-dense --seed 1 --seconds 20 --trace 0

Each request is one user action on one freshly generated input, timed around
``ropforge.cli.main(argv)`` in this process with stdout and stderr captured.
The load is a closed loop: one client, one request at a time.  A run makes a
fixed number of requests, ``--seconds`` over the workload's nominal request
time, so one seed always gives the same requests and the same failures.
Times are scaled to a reference machine speed measured between requests
(``speed.py``).  Every output is checked against a reference that ropforge
did not produce (``reference.py``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every request untraced and then traced
and reports per-layer metrics from spans recorded around ropforge's layer
entry points (``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the
environment, workload properties and every failure goes to
``.ropbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".ropbench"
MIB = 1024 * 1024
WORKLOADS = ("scan-dense", "chain-large", "chain-small")

# Knobs a user could set that would take the runs off ropforge's defaults.
_USER_ENV = ("ROPFORGE_KERNEL", "ROPFORGE_COLOR")

SETUP_REPEATS = 15
SLICE_S = 0.25  # busy seconds between two timings of the speed loops
# The speed loop runs in the fresh interpreter itself, before and after the
# timed part, because the child may run on the other CPU than this process.
SETUP_SCRIPT = """\
import io, json, sys, time
from contextlib import redirect_stdout
sys.path.insert(0, {here!r})
import speed
before = speed.loop_seconds()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import ropforge.cli
out = io.StringIO()
with redirect_stdout(out):
    rc = ropforge.cli.main(["gadgets", {binary!r}])
t1 = time.perf_counter()
after = speed.loop_seconds()
result = {{"rc": rc, "seconds": t1 - t0, "scale": speed.scale(before, after)}}
print(json.dumps(result | {{"out": out.getvalue()}}))
"""


def run_cli(main, argv: list[str]) -> tuple[int | str, str, str]:
    """One ``ropforge`` invocation in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback is a failed request, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Sample:
    """One request: its latency and the outcome of its check.

    Each request is checked right after it ran, outside the timed region, so
    no output is kept.
    """

    index: int
    seconds: float  # wall time
    output_bytes: int
    facts: dict
    checks: list  # per execution: None, or (cause, message) of a failure
    traced_seconds: float | None = None
    scale: float = 1.0  # from wall time to reference time (``speed.scale``)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


@dataclass
class Workload:
    name: str
    make: Callable  # (seed, index) -> inputs.Case
    request: Callable  # (main, workdir) -> [(exit code, stdout, stderr)] of its CLI calls
    check: Callable  # (case, calls, workdir) -> None, or (cause, message)
    # Busy seconds of one request at the reference speed, when the benchmark
    # was written; a run makes ``--seconds`` over this many requests.
    nominal_s: float


def _workloads(tiny: bool) -> dict[str, Workload]:
    import inputs
    import reference

    dense_size = 8 * 1024 if tiny else inputs.DENSE_SIZE
    large_size = 16 * 1024 if tiny else inputs.LARGE_SIZE

    def make_dense(seed, index):
        return inputs.scan_dense(seed, index, dense_size)

    def make_large(seed, index):
        return inputs.chain_large(seed, index, large_size)

    def gadgets_request(main, workdir):
        return [run_cli(main, ["gadgets", str(workdir / inputs.BINARY)])]

    @functools.lru_cache(maxsize=1)  # a traced run checks each input twice
    def expected_listing(text: bytes, vaddr: int) -> str:
        return reference.expected_listing(text, vaddr)

    def gadgets_check(case, calls, workdir):
        rc, out, _ = calls[0]
        want = expected_listing(case.text, case.text_vaddr)
        if rc == 0 and out == want:
            return None
        lines = f"{out.count(chr(10))} lines; oracle lists {want.count(chr(10))}"
        return reference.UNEXPLAINED, f"gadgets exit {rc}, {lines}"

    def chain_request(main, workdir):
        chain, payload = str(workdir / inputs.CHAIN), str(workdir / inputs.PAYLOAD)
        calls = [run_cli(main, ["build", chain, "--out", payload, "--format", "raw", "--force"])]
        if calls[0][0] == 0:
            binary = str(workdir / inputs.BINARY)
            calls.append(run_cli(main, ["verify", binary, chain, "--payload", payload]))
        return calls

    def chain_check(case, calls, workdir):
        payload = workdir / inputs.PAYLOAD
        verify = calls[1] if len(calls) > 1 else (None, "", "")
        outcome = reference.ChainOutcome(
            build_rc=calls[0][0],
            build_err=calls[0][2],
            payload=payload.read_bytes() if payload.exists() else None,
            verify_rc=verify[0],
            verify_out=verify[1],
        )
        msg = reference.check_chain(case, outcome)
        return None if msg is None else (reference.failure_cause(case, outcome), msg)

    table = [
        Workload("scan-dense", make_dense, gadgets_request, gadgets_check, 0.3),
        Workload("chain-large", make_large, chain_request, chain_check, 0.3),
        Workload("chain-small", inputs.chain_small, chain_request, chain_check, 0.005),
    ]
    return {w.name: w for w in table}


def _output_bytes(calls) -> int:
    return sum(len(out) + len(err) for _, out, err in calls)


def _facts(case) -> dict:
    import reference

    facts = {"text_bytes": len(case.text)}
    if case.calls:
        facts["no_cleanup"] = not reference.cleanup_arities(case)
        facts["expected_exit5"] = reference.expected_exit(case) != 0
    return facts


def _write_case(workdir: Path, case) -> None:
    import inputs

    (workdir / inputs.PAYLOAD).unlink(missing_ok=True)
    for name, blob in case.files.items():
        (workdir / name).write_bytes(blob)


def request_count(wl: Workload, seconds: float, trace: bool) -> int:
    """Requests in one run; a traced run executes each of them twice."""
    return max(1, math.ceil(seconds / wl.nominal_s / (2 if trace else 1)))


def _measure(wl: Workload, main, seed: int, n: int, workdir: Path, tracer=None, between=None):
    """Requests 0..n-1 of the seed's stream in a closed loop; returns the samples.

    ``between(index)``, if given, runs untimed before request ``index``.

    The requests are cut into slices of at least SLICE_S busy time.  The speed
    loops run just before a slice's first request and just after its last, and
    every request of the slice is scaled by those two loop times.  Checks and
    traced executions run outside the slices where a slice holds one request.
    """
    samples: list[Sample] = []
    pending: list[Sample] = []
    for index in range(n):
        if between is not None:
            between(index)
        case = wl.make(seed, index)
        _write_case(workdir, case)
        if not pending:
            before = speed.loop_seconds()
        t0 = perf_counter()
        calls = wl.request(main, workdir)
        elapsed = perf_counter() - t0
        sample = Sample(index, elapsed, _output_bytes(calls), _facts(case), [])
        samples.append(sample)
        pending.append(sample)
        if sum(s.seconds for s in pending) >= SLICE_S or index == n - 1:
            after = speed.loop_seconds()
            for s in pending:
                s.scale = speed.scale(before, after)
            pending = []
        sample.checks.append(wl.check(case, calls, workdir))
        if tracer is not None:
            _write_case(workdir, case)

            def traced_main(argv):
                return tracer.span("cli.main", main, argv)

            with tracer.request(index):
                t0 = perf_counter()
                calls = wl.request(traced_main, workdir)
                sample.traced_seconds = perf_counter() - t0
            sample.checks.append(wl.check(case, calls, workdir))
    return samples


class SetupProbe:
    """Fresh interpreters that import ropforge.cli and list the demo's gadgets.

    Each probe records its wall time, the same scaled to the reference speed,
    or a failure.  A run spreads its probes over its requests, so their median
    samples the machine's speed over the whole run.
    """

    def __init__(self, workdir: Path):
        import inputs
        import reference

        demo = workdir / "demo.elf"
        demo.write_bytes(inputs.demo_elf())
        self.want = reference.expected_listing(inputs.demo_text(), inputs.DEMO_TEXT_VADDR)
        self.script = SETUP_SCRIPT.format(here=str(HERE), src=str(SRC), binary=str(demo))
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[str] = []

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-c", self.script],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        if proc.returncode != 0:
            self.failures.append(f"setup interpreter exited {proc.returncode}: {proc.stderr[-300:]}")
            return
        result = json.loads(proc.stdout.splitlines()[-1])
        self.wall.append(result["seconds"])
        self.scaled.append(result["seconds"] * result["scale"])
        if result["rc"] != 0 or result["out"] != self.want:
            self.failures.append(f"setup gadgets on the demo: exit {result['rc']}, wrong listing")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _environment(seed: int) -> dict:
    import numpy
    from ropforge import kernels

    backend = getattr(kernels, "active_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend() if callable(backend) else "none",
        "seed": seed,
        "commit": _commit(),
    }


def _end_to_end(samples, setup_times, rss_mib) -> dict[str, float]:
    lat = [s.scaled for s in samples]
    busy = sum(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * p90,
        "throughput_mib_s": sum(s.facts["text_bytes"] for s in samples) / MIB / busy,
        "requests_per_s": len(samples) / busy,
        "peak_rss_mib": rss_mib,
        "setup_s": statistics.median(setup_times),
    }


def _per_layer(wl, seed, samples, tracer, names):
    """Per-request means of the traced layer metrics, plus ratios over totals.

    Returns the metrics, the absent patch points and the scanner's input
    properties (terminator density, unique share of accepted windows).
    """
    from ropforge import gadgets, kernels

    absent = list(tracer.absent)
    scan = getattr(kernels, "scan_free_branches", None)
    if not callable(scan):
        absent.append("ropforge.kernels.scan_free_branches")
    window_back = getattr(gadgets, "DEFAULT_WINDOW_BACK", 20)
    enumerations: dict[int, int] = {}
    for span in tracer.spans:
        if span.name == "gadgets.enumerate":
            enumerations[span.request] = enumerations.get(span.request, 0) + 1
    totals = {name: 0.0 for name in names} | tracer.totals()
    scanned = 0.0
    for sample in samples:
        totals["cli.output_bytes"] += sample.output_bytes
        # Terminator counts come from a separate scan of the same bytes, once
        # per enumeration the request made.
        runs = enumerations.get(sample.index, 0) if callable(scan) else 0
        text = wl.make(seed, sample.index).text if runs else b""
        scanned += runs * len(text)
        for _ in range(runs):
            t0 = perf_counter()
            terms = scan(text)
            totals["kernels.terminator_scan_ms"] += 1000 * (perf_counter() - t0)
            totals["kernels.terminators"] += len(terms)
            totals["kernels.windows_tried"] += sum(min(t, window_back) + 1 for t, _ in terms)
    n = len(samples)
    traced = sum(s.traced_seconds for s in samples)
    untraced = sum(s.seconds for s in samples)
    metrics = {name: totals[name] / n for name in names}
    metrics["kernels.window_accept_ratio"] = _ratio(
        totals["kernels.windows_accepted"], totals["kernels.windows_tried"]
    )
    metrics["gadgets.unique_ratio"] = _ratio(
        totals["gadgets.unique"], totals["kernels.windows_accepted"]
    )
    metrics["sim.us_per_step"] = _ratio(1000 * totals["sim.simulate_ms"], totals["sim.steps"])
    metrics["trace.self_coverage"] = _ratio(totals["trace.self_ms"], 1000 * traced)
    metrics["trace.overhead_ratio"] = traced / untraced - 1
    props = {
        "terminator_density": _ratio(totals["kernels.terminators"], scanned),
        "unique_window_ratio": metrics["gadgets.unique_ratio"],
    }
    return metrics, absent, props


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _chain_shares(samples) -> dict[str, float]:
    """Measured share of each chain property the workloads differ in."""
    n = len(samples)
    if "no_cleanup" not in samples[0].facts:
        return {}
    return {
        "share_no_cleanup": sum(s.facts["no_cleanup"] for s in samples) / n,
        "share_expected_exit5": sum(s.facts["expected_exit5"] for s in samples) / n,
    }


def _spec() -> dict:
    """BENCHMARK.json: the metric names and units, and each workload's reason."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args) -> int:
    import reference
    from ropforge import cli

    from tracing import Tracer

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = _workloads(args.tiny)[args.workload]
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_runs = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS
        setup = SetupProbe(workdir)
        run_cli(cli.main, ["gadgets", str(workdir / "demo.elf")])  # warm-up, untimed

        tracer = Tracer() if args.trace else None
        n = request_count(wl, args.seconds, bool(args.trace))
        # Probes before requests 0, n/k, 2n/k, ... (several before one when k > n).
        probes = Counter(i * n // setup_runs for i in range(setup_runs))

        def between(index):
            for _ in range(probes[index]):
                setup.probe()

        samples = _measure(wl, cli.main, args.seed, n, workdir, tracer, between)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [("setup", msg) for msg in setup.failures]
    failures += [c for s in samples for c in s.checks if c is not None]
    attempted = setup_runs + sum(len(s.checks) for s in samples)

    absent: list[str] = []
    properties = {"requests": len(samples), **_chain_shares(samples)}
    if args.trace:
        metrics, absent, scanner = _per_layer(wl, args.seed, samples, tracer, list(units))
        properties.update(scanner)
    else:
        metrics = _end_to_end(samples, setup.scaled, rss_mib)
    causes = dict(Counter(cause for cause, _ in failures))
    correct = not any(cause in (reference.UNEXPLAINED, "setup") for cause in causes)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "environment": _environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "load": "closed loop, one client, one request at a time",
        "samples": len(samples),
        "reference_loop_s": speed.REFERENCE_S,
        "error_ratio": len(failures) / attempted,
        "failures_by_cause": causes,
        "failures": [{"cause": c, "message": m} for c, m in failures[:50]],
        "properties": properties,
        "absent_patch_points": absent,
        "latencies_ms": [1000 * s.seconds for s in samples],
        "scales": [s.scale for s in samples],
        "setup_wall_s": setup.wall,
        "result": result,
    }
    out = STATE / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {wl.name}: {len(samples)} requests, seed {args.seed}, see {out.relative_to(ROOT)}")
    wall_p50 = 1000 * statistics.median(s.seconds for s in samples)
    print(f"# times scaled to the reference speed; unscaled latency p50 {wall_p50:.6g} ms")
    for name, m in result["metrics"].items():
        print(f"{name:<30} {m['value']:>14.6g} {m['unit']}")
    ratio = record["error_ratio"]
    print(f"{'error_ratio':<30} {ratio:>14.6g} ({len(failures)}/{attempted}) {causes}")
    for name in absent:
        print(f"absent: {name}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ropforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "ropforge" / "cli.py").is_file():
        print(f"ropbench: no ropforge source at {SRC / 'ropforge'}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    for var in _USER_ENV:
        os.environ.pop(var, None)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
