"""Span tracer that wraps paracasimir's layer entry points from outside.

Each entry point is named by attribute and wrapped in every layer module
that binds that name, so calls made through any module's namespace are
seen.  A name that no module binds (renamed or deleted by a refactor) is
reported as untraced instead of failing.

Spans (name, layer, start, end, parent, run) are kept in memory.  A
layer's self time is the duration of its spans minus the part covered by
their child spans.  Work counts are taken only where a call crosses into
a layer from another one, so a layer calling its own helpers is not
counted twice.  The log-det count is sum n^3 over factorized orders n,
from which ``layer_metrics`` derives the 2 n^3 / 3 flop estimate of LU.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

LAYER_MODULES = ("energy", "roundtrip", "scattering", "translation", "specfun")


def _first_array(result):
    """The leading array of a result: the array itself, the first item of a
    tuple, or the ``entries`` of a kernel object."""
    if isinstance(result, tuple):
        result = result[0]
    return getattr(result, "entries", result)


def _size(args, result):
    return int(np.size(_first_array(result)))


def _matrix_size(args, result):
    a = _first_array(result)
    return int(a.size) if np.ndim(a) == 2 else 0


def _order_cubed(args, result):
    return int(np.shape(_first_array(args[0]))[0]) ** 3


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``layer`` names the metric prefix, ``part`` splits a layer's time
    ('assemble' / 'logdet'), and ``work`` maps (args, result) to the
    count added to the counter named ``counter``.
    """

    name: str
    layer: str
    part: str = ""
    counter: str = ""
    work: object = None


ENTRIES = (
    Entry("bateman_m_log", "specfun", counter="bateman_entries", work=_size),
    Entry("bateman_k_table", "specfun", counter="bateman_entries", work=_size),
    Entry("pcf_regular_imag_table", "specfun", counter="pcf_entries", work=_size),
    Entry("pcf_outgoing_table", "specfun", counter="pcf_entries", work=_size),
    Entry("parabolic_amplitude_table", "scattering"),
    Entry("_gram", "translation", counter="gram_entries", work=_size),
    Entry("tilted_matrix_log", "translation", counter="gram_entries", work=_size),
    Entry("_body_half_logs", "roundtrip", "assemble"),
    Entry("_body_block_theta0", "roundtrip", "assemble", "assemble_entries", _matrix_size),
    Entry("_body_block_tilted", "roundtrip", "assemble", "assemble_entries", _matrix_size),
    Entry("_knife_block_from_k", "roundtrip", "assemble", "assemble_entries", _matrix_size),
    Entry("_knife_block_from_gram", "roundtrip", "assemble", "assemble_entries", _matrix_size),
    Entry("build_kernel", "roundtrip", "assemble", "assemble_entries", _matrix_size),
    Entry("logdet_one_minus", "roundtrip", "logdet", "logdet_n3", _order_cubed),
)


@dataclass
class Span:
    name: str
    layer: str
    part: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """Install with ``with Tracer() as t:``; time evaluations with ``t.run``."""

    def __init__(self, entries=ENTRIES):
        self.entries = entries
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.untraced: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._run = 0

    def __enter__(self):
        modules = [importlib.import_module(f"paracasimir.{m}") for m in LAYER_MODULES]
        for entry in self.entries:
            wrapped = False
            for mod in modules:
                fn = getattr(mod, entry.name, None)
                if callable(fn):
                    self._saved.append((mod, entry.name, fn))
                    setattr(mod, entry.name, self._wrap(entry, fn))
                    wrapped = True
            if not wrapped:
                self.untraced.append(entry.name)
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
        return False

    def _open(self, name, layer, part):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, layer, part, time.perf_counter(), 0.0, parent, self._run))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _crosses(self, idx):
        span = self.spans[idx]
        if span.parent is None:
            return True
        parent = self.spans[span.parent]
        return (parent.layer, parent.part) != (span.layer, span.part)

    def _wrap(self, entry: Entry, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(entry.name, entry.layer, entry.part)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if self._crosses(idx):
                key = entry.layer if not entry.part else f"{entry.layer}.{entry.part}"
                self.counts[f"{key}.calls"] += 1
                if entry.work is not None:
                    self.counts[f"{entry.layer}.{entry.counter}"] += entry.work(args, result)
            return result
        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under a root span of layer 'energy' with a new run id."""
        self._run += 1
        idx = self._open(getattr(fn, "__name__", "run"), "energy", "")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def self_times(self) -> Counter:
        """Self seconds keyed by layer, and by 'layer.part' where a part is set."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = Counter()
        for s, c in zip(self.spans, child):
            own = (s.end - s.start) - c
            out[s.layer] += own
            if s.part:
                out[f"{s.layer}.{s.part}"] += own
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of everything the tracer recorded, as plain numbers."""
    t, c = tracer.self_times(), tracer.counts
    gflop = 2.0 * c["roundtrip.logdet_n3"] / 3.0 * 1e-9
    logdet_s = float(t["roundtrip.logdet"])
    return {
        "specfun.self_s": float(t["specfun"]),
        "specfun.calls": c["specfun.calls"],
        "specfun.bateman_entries": c["specfun.bateman_entries"],
        "specfun.pcf_entries": c["specfun.pcf_entries"],
        "scattering.self_s": float(t["scattering"]),
        "scattering.calls": c["scattering.calls"],
        "translation.self_s": float(t["translation"]),
        "translation.calls": c["translation.calls"],
        "translation.gram_entries": c["translation.gram_entries"],
        "roundtrip.assemble_s": float(t["roundtrip.assemble"]),
        "roundtrip.assemble_entries": c["roundtrip.assemble_entries"],
        "roundtrip.logdet_s": logdet_s,
        "roundtrip.logdet_calls": c["roundtrip.logdet.calls"],
        "roundtrip.logdet_gflop": gflop,
        "roundtrip.logdet_gflops": gflop / logdet_s if logdet_s > 0 else 0.0,
        "energy.self_s": float(t["energy"]),
    }
