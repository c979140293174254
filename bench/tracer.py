"""Spans around cmapuf's public calls, recorded from outside the package.

``install`` replaces each traced function with a wrapper in every cmapuf
module that holds a reference to it, so calls made by ``cli.cmd_*`` and by
the library's own internals both open a span.  Spans are kept in flat
arrays (name id, start, end, parent) so that a traced population run with
half a million calls stays small; ``self_times`` turns them into per-name
self time, call counts and busy time once the run is over.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType

import numpy as np

# (module, function) pairs wrapped with a span; span names are "<module>.<function>".
TRACED = (
    ("variation", "synth_population"),
    ("cellarray", "evaluate"),
    ("crp", "record_seed"),
    ("crp", "generate"),
    ("crp", "save_csv"),
    ("crp", "save_jsonl"),
    ("crp", "load_csv"),
    ("crp", "load_jsonl"),
    ("crp", "bits_matrix"),
    ("crp", "uniqueness"),
    ("crp", "uniformity"),
    ("crp", "bit_aliasing"),
    ("crp", "reliability"),
    ("adc", "convert"),
    ("adc", "response_bits"),
    ("quantizer", "region_of"),
    ("quantizer", "lloyd_max"),
    ("analog", "transfer_array"),
    ("attack", "split"),
    ("attack", "lr_train"),
    ("attack", "es_fit"),
    ("attack", "attack_report"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        # side observations made by the wrappers (records, bytes, chips, ...)
        self.counts: dict[str, float] = {}
        self.captured: dict[str, list] = {}
        # first error per span whose observation raised: the figures it feeds are wrong
        self.observe_errors: dict[str, str] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self._stack[1:])

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def dump(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        path.write_text(json.dumps(doc))


def self_times(names: list[str], name, start, end, parent) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which is the part of its interval no child span covers.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end) - np.asarray(start)
    n = dur.size
    has_parent = parent >= 0
    child_busy = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child_busy[:n]
    k = len(names)
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name, weights=dur, minlength=k)
    selft = np.bincount(name, weights=own, minlength=k)
    return {
        nm: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(selft[i])}
        for i, nm in enumerate(names)
    }


def _observe(tracer: Tracer, span: str, args: tuple, kwargs: dict, result) -> None:
    """Counts and captured values that the per-layer metrics need."""
    if span == "variation.synth_population":
        tracer.add("variation.chips", len(result))
    elif span == "crp.generate":
        tracer.add("crp.records", len(result))
        if tracer.inside("crp.reliability"):
            tracer.add("crp.reliability_reads", len(result))
    elif span in ("crp.save_csv", "crp.save_jsonl"):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.add("crp.bytes", Path(path).stat().st_size)
    elif span == "adc.convert":
        if "convert_ctx" not in tracer.captured:
            tracer.captured["convert_ctx"] = args[:2]
        tracer.captured.setdefault("convert", []).append((args[2], result))
    elif span == "quantizer.lloyd_max":
        tracer.captured.setdefault("lloyd_max", []).append((args, kwargs))
    elif span == "attack.lr_train":
        tracer.add("attack.lr_epochs", len(result.loss_history) - 1)
    elif span == "attack.es_fit":
        history = np.asarray(result.history)
        tracer.add("attack.es_generations", len(history) - 1)
        tracer.add("attack.es_improving_gens", int(np.sum(history[1:] < history[:-1])))


def _wrap(tracer: Tracer, span: str, fn):
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        try:
            _observe(tracer, span, args, kwargs, result)
        except Exception as exc:  # an observation must never change the program's behaviour
            tracer.observe_errors.setdefault(span, repr(exc))
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function that exists; return the span names not wrapped.

    A function the package no longer defines cannot be traced, and its
    layer would read zero; the caller must report the names returned.
    """
    modules = [m for k, m in sys.modules.items() if k.startswith("cmapuf") and m is not None]
    missing = []
    for mod_name, fn_name in TRACED:
        mod = sys.modules.get(f"cmapuf.{mod_name}")
        fn = getattr(mod, fn_name, None) if isinstance(mod, ModuleType) else None
        span = f"{mod_name}.{fn_name}"
        if fn is None:
            missing.append(span)
            continue
        wrapper = _wrap(tracer, span, fn)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)
    return missing
