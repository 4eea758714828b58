"""Spans around ropforge's public layer entry points, patched in at run time.

No ropforge source is edited: while a traced request runs, each patch point
below is replaced by a wrapper that records a span (name, start, end, parent,
request id) and the counts taken from its result.  Spans stay in memory until
the run ends.  A patch point that no longer exists is reported as absent and
the run goes on.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _count(name: str):
    """Counter that records the length of a span's result under ``name``."""
    return lambda result: {name: len(result)}


def _plan_counts(layout) -> dict[str, int]:
    cleanup = sum(1 for w in layout.words if w.role.value == "cleanup_gadget")
    return {"chain.words": len(layout.words), "chain.cleanup_gadgets": cleanup}


# (module, attribute, span name, counts taken from the result)
PATCH_POINTS = (
    ("ropforge.cli", "load_image", "image.load", None),
    ("ropforge.cli", "enumerate_gadgets", "gadgets.enumerate", _count("gadgets.unique")),
    ("ropforge.cli", "plan_chain", "chain.plan", _plan_counts),
    ("ropforge.cli", "emit_payload", "chain.emit", None),
    ("ropforge.cli", "check_bad_bytes", "chain.bad_bytes", _count("chain.bad_bytes_found")),
    ("ropforge.cli", "simulate", "sim.simulate", lambda t: {"sim.calls": len(t.events)}),
    ("ropforge.chainfile", "load_chain_file", "chainfile.parse", None),
    ("ropforge.chainfile", "resolve", "chainfile.resolve", None),
    ("ropforge.chainfile", "stack_frame_displacement", "image.frame_disp", None),
    (
        "ropforge.kernels",
        "scan_gadget_windows",
        "kernels.window_scan",
        _count("kernels.windows_accepted"),
    ),
    ("ropforge.gadgets", "decode_window", "disasm.decode_window", None),
    ("ropforge.sim", "step", "sim.step", None),
)

# Per-layer times: metric -> (span name, self time rather than duration).
TIME_METRICS = {
    "cli.self_ms": ("cli.main", True),
    "image.load_ms": ("image.load", False),
    "image.frame_disp_ms": ("image.frame_disp", False),
    "chainfile.parse_ms": ("chainfile.parse", False),
    "chainfile.resolve_self_ms": ("chainfile.resolve", True),
    "gadgets.enumerate_self_ms": ("gadgets.enumerate", True),
    "kernels.window_scan_ms": ("kernels.window_scan", False),
    "disasm.decode_window_ms": ("disasm.decode_window", False),
    "chain.plan_ms": ("chain.plan", False),
    "chain.emit_ms": ("chain.emit", False),
    "chain.bad_bytes_ms": ("chain.bad_bytes", False),
    "sim.simulate_ms": ("sim.simulate", False),
}
# Per-layer call counts: metric -> span name.
CALL_METRICS = {"disasm.decode_window_calls": "disasm.decode_window", "sim.steps": "sim.step"}


@dataclass
class Span:
    name: str
    request: int
    parent: int | None  # index into Tracer.spans
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._points = []
        for module_name, attr, span_name, counts in PATCH_POINTS:
            module = importlib.import_module(module_name)
            if callable(getattr(module, attr, None)):
                self._points.append((module, attr, span_name, counts))
            else:
                self.absent.append(f"{module_name}.{attr}")

    def span(self, name: str, fn, *args, counts=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        span = Span(name, self._request, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if counts is not None:
            span.counts = counts(result)
        return result

    def _wrap(self, name, fn, counts):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, counts=counts, **kwargs)

        return wrapper

    @contextmanager
    def request(self, request_id: int):
        """Install every patch point for one traced request."""
        self._request = request_id
        originals = []
        try:
            for module, attr, name, counts in self._points:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counts))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self._request = -1

    def totals(self) -> dict[str, float]:
        """Layer metrics summed over every span: times in ms, counts as totals.

        ``trace.self_ms`` is the sum of all self times, which is the time the
        spans account for.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        by_name = {span_name: metric for metric, (span_name, _) in TIME_METRICS.items()}
        calls = {span_name: metric for metric, span_name in CALL_METRICS.items()}
        out: dict[str, float] = defaultdict(float)
        for span, child_time in zip(self.spans, child):
            self_ms = 1000 * (span.duration - child_time)
            out["trace.self_ms"] += self_ms
            if span.name in by_name:
                metric = by_name[span.name]
                out[metric] += self_ms if TIME_METRICS[metric][1] else 1000 * span.duration
            if span.name in calls:
                out[calls[span.name]] += 1
            for key, value in span.counts.items():
                out[key] += value
        return out
