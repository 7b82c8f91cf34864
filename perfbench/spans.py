"""Call spans around the library's public functions, and what they add up to.

:class:`Tracer` runs inside a benchmark child process.  It replaces every
binding of a traced function in the ``satcvqkd`` modules, including names
bound with ``from ... import`` (``pipeline.link_budget``,
``cli.evaluate_point``, ...), with a wrapper that records a span: name,
start, end and the span that was open when it started.  Spans stay in
memory until :meth:`Tracer.write`.  The benchmark leaves
``SATCVQKD_WORKERS`` unset, so calls run on one thread and one stack of
open spans gives each span its parent.

The functions below the tracer turn a span list into per-layer numbers and
parse ``python -X importtime`` output; they import nothing from the library.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# (module, function) pairs whose calls are timed; the span name is
# "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("config", "load"),
    ("pipeline", "evaluate_point"),
    ("channel", "link_budget"),
    ("channel", "rytov_variance"),
    ("gaussian", "gm_security"),
    ("psk", "psk_security"),
    ("qam", "qam_security"),
    ("qam", "build_constellation"),
    ("qam", "modulation_density_matrix"),
    ("finite_size", "snr_db"),
    ("finite_size", "beta"),
    ("finite_size", "fer"),
    ("finite_size", "privacy_penalty"),
    ("finite_size", "skr_finite"),
    ("pass_analysis", "load_profile"),
    ("pass_analysis", "integrate_key_bits"),
)

FINITE_SIZE_SPANS = frozenset(
    f"finite_size.{name}"
    for name in ("snr_db", "beta", "fer", "privacy_penalty", "skr_finite")
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records spans for wrapped calls; one instance per process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name: str, func):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so spans stay in start order
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                open_spans.pop()

        return wrapper

    def install_library_wrappers(self) -> None:
        """Wrap each TRACED function at every binding a caller can look up."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "satcvqkd" or n.startswith("satcvqkd."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"satcvqkd.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def read_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    names = payload["names"]
    return [Span(names[n], s, e, p) for n, s, e, p in payload["spans"]]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def busy_time(spans: list[Span], names: frozenset[str]) -> float:
    """Wall time inside any span named in ``names``, counting nested ones once."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


def layer_metrics(spans: list[Span], qam_constellations: int,
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see README.md)."""
    selves = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, selves):
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += self_s

    def per_call_us(values: dict[str, float], name: str) -> float:
        return 1e6 * values[name] / calls[name] if calls[name] else 0.0

    mdm = "qam.modulation_density_matrix"
    return {
        "channel.link_budget.calls": calls["channel.link_budget"],
        "channel.link_budget.self_us_per_call": per_call_us(own, "channel.link_budget"),
        "channel.rytov_variance.us_per_call": per_call_us(total, "channel.rytov_variance"),
        "gaussian.gm_security.us_per_call": per_call_us(total, "gaussian.gm_security"),
        "finite_size.busy_s": busy_time(spans, FINITE_SIZE_SPANS),
        "finite_size.privacy_penalty.calls": calls["finite_size.privacy_penalty"],
        "pipeline.evaluate_point.calls": calls["pipeline.evaluate_point"],
        "pipeline.evaluate_point.self_us_per_call":
            per_call_us(own, "pipeline.evaluate_point"),
        "psk.psk_security.us_per_call": per_call_us(total, "psk.psk_security"),
        "qam.qam_security.calls": calls["qam.qam_security"],
        "qam.qam_security.self_us_per_call": per_call_us(own, "qam.qam_security"),
        "qam.build_constellation.us_per_call":
            per_call_us(total, "qam.build_constellation"),
        "qam.modulation_density_matrix.calls": calls[mdm],
        "qam.modulation_density_matrix.busy_s": busy_time(spans, frozenset({mdm})),
        "qam.fock_builds_per_constellation":
            calls[mdm] / qam_constellations if qam_constellations else 0.0,
        "pass_analysis.load_profile.busy_s":
            busy_time(spans, frozenset({"pass_analysis.load_profile"})),
        "pass_analysis.integrate_key_bits.self_s": own["pass_analysis.integrate_key_bits"],
        "config.load.busy_s": busy_time(spans, frozenset({"config.load"})),
        "cli.main.self_s": own["cli.main"],
        "cli.output_bytes": output_bytes,
    }


def import_breakdown(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import self time per top-level package from ``-X importtime``.

    Every imported module's self time is summed into its top-level package,
    so ``import.scipy_s`` covers ``scipy.integrate``, ``scipy.special`` and
    everything below them, wherever they were first imported from.
    """
    per_package: dict[str, float] = defaultdict(float)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        package = fields[2].strip().split(".")[0]
        per_package[package] += int(fields[0]) * 1e-6
    return {
        "import.numpy_s": per_package["numpy"],
        "import.scipy_s": per_package["scipy"],
        "import.satcvqkd_self_s": per_package["satcvqkd"],
    }
