"""Span tracing of the control stack's layers, from outside ``src/``.

A :class:`Tracer` replaces the public functions listed in
:data:`TARGETS` with wrappers that record one span per call: the span
name, its start and end (``perf_counter_ns``) and the index of the
span that was open when it started (its parent).  Nothing under
``src/`` is edited; the wrappers are installed on the classes and
modules at run time and removed again by :meth:`Tracer.uninstall`, so
an untraced run executes the original functions.

A layer's self time is the summed duration of its spans minus the
parts of those intervals that their child spans cover.  Only calls
made from the thread that installed the tracer are recorded; calls
from other threads (the in-process service loop) pass straight
through.

The same wrapping can instead add a fixed busy-wait to every call of
one layer's functions (:func:`inject_delay`), which is how the
sensitivity self-check shows that a workload's end-to-end metric
tracks the layer it is meant to load.
"""

from __future__ import annotations

import importlib
import pathlib
import threading
import time
from array import array

import numpy as np

#: Layers, named after the modules they cover.  A span belongs to the
#: longest layer name that prefixes the span name.
LAYERS = ("shots", "control", "qpu.device", "qpu.backend", "tracecache",
          "rng", "artifacts", "service")

#: ``(span name, "module:Owner.attribute")`` for every wrapped call.
#: An owner-less path (``"module:function"``) names a module function.
TARGETS = (
    ("shots.init", "repro.qcp.shots:ShotEngine.__init__"),
    ("shots.run_range", "repro.qcp.shots:ShotEngine.run_range"),
    ("shots.merge", "repro.qcp.shots:merge_shard_outcomes"),
    ("control.build", "repro.qcp.system:QuAPESystem.__init__"),
    ("control.run", "repro.qcp.system:QuAPESystem.run"),
    ("control.kernel", "repro.sim.kernel:SimKernel.run"),
    ("qpu.device.restart", "repro.qpu.device:SimulatedQPU.restart"),
    ("qpu.device.apply_gate", "repro.qpu.device:SimulatedQPU.apply_gate"),
    ("qpu.device.measure", "repro.qpu.device:SimulatedQPU.measure"),
    ("qpu.device.reset", "repro.qpu.device:SimulatedQPU.reset"),
    ("qpu.device.apply_gate", "repro.qpu.device:PRNGQPU.apply_gate"),
    ("qpu.device.measure", "repro.qpu.device:PRNGQPU.measure"),
    ("qpu.device.reset", "repro.qpu.device:PRNGQPU.reset"),
    *((f"qpu.backend.{method}", f"{module}:{cls}.{method}")
      for module, cls in (("repro.qpu.stabilizer", "StabilizerState"),
                          ("repro.qpu.statevector", "StateVector"))
      for method in ("apply_gate", "measure", "reset", "reinitialize",
                     "snapshot", "restore")),
    ("tracecache.replay", "repro.qcp.tracecache:TraceCache.replay"),
    ("tracecache.replay_batch",
     "repro.qcp.tracecache:TraceCache.replay_batch"),
    ("tracecache.record", "repro.qcp.tracecache:TraceCache.record"),
    ("rng.seed", "random:Random.seed"),
    ("artifacts.load", "repro.qcp.artifacts:ArtifactCache.load_into"),
    ("artifacts.save", "repro.qcp.artifacts:ArtifactCache.save_from"),
    ("service.submit", "repro.service.client:ServiceClient.submit"),
)


def layer_of(span_name: str) -> str:
    return max((layer for layer in LAYERS
                if span_name == layer or span_name.startswith(layer + ".")),
               key=len)


def _resolve(path: str):
    """``(owner object, attribute name)`` for a target path."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class _Patches:
    """Installs replacement attributes and restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, path: str, make_wrapper) -> None:
        owner, attr = _resolve(path)
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans in memory while installed; see the module doc."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: Sum of ``events_processed`` over the ``QuAPESystem.run`` calls.
        self.events = 0
        self._stack = [-1]
        self._thread = threading.get_ident()
        self._patches = _Patches()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, function):
        """``function`` with a span named ``name`` around every call."""
        kind_id = self._name_id(name)
        counts_events = name == "control.run"
        stack, kind, start, end, parent = (self._stack, self.kind,
                                           self.start, self.end,
                                           self.parent)
        tracer = self
        owner_thread = self._thread
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != owner_thread:
                return function(*args, **kwargs)
            index = len(start)
            kind.append(kind_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(index)
            begin = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = begin
                stack.pop()
            if counts_events:
                tracer.events += result.events_processed
            return result

        return traced

    def install(self, layers: tuple[str, ...] = LAYERS) -> None:
        """Wrap every target of ``layers``."""
        for name, path in TARGETS:
            if layer_of(name) in layers:
                self._patches.replace(
                    path, lambda original, name=name: self.wrap(name,
                                                                original))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.kind, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``."""
        kind, start, end, parent = self._arrays()
        if not len(kind):
            return {}
        duration = (end - start).astype(np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(kind))
        self_time = duration - child_time
        calls = np.bincount(kind, minlength=len(self.names))
        self_by_kind = np.bincount(kind, weights=self_time,
                                   minlength=len(self.names))
        return {name: {"calls": int(calls[i]),
                       "self_s": float(self_by_kind[i]) / 1e9}
                for i, name in enumerate(self.names)}

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, entry in self.summary().items():
            totals[layer_of(name)] += entry["self_s"]
        return totals

    def write(self, path: pathlib.Path) -> None:
        """Write every span to ``path`` (compressed ``.npz``)."""
        kind, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), kind=kind,
                            start_ns=start, end_ns=end, parent=parent)


def inject_delay(spec: str) -> _Patches:
    """Add a busy-wait after every call of the matching targets.

    ``spec`` is ``"<span-name prefix>=<seconds>"``, several separated
    by commas: ``"control=0.005"`` delays every ``control.*`` call,
    ``"tracecache.replay=0.0005"`` delays ``TraceCache.replay`` and
    ``replay_batch``.  Returns the installed patches.
    """
    patches = _Patches()
    for item in spec.split(","):
        prefix, _, seconds = item.partition("=")
        delay_ns = int(float(seconds) * 1e9)
        matched = [path for name, path in TARGETS
                   if name.startswith(prefix)]
        if not matched or delay_ns <= 0:
            raise ValueError(f"bad --inject-delay item {item!r}")
        for path in matched:
            patches.replace(path, lambda original: _delayed(original,
                                                            delay_ns))
    return patches


def _delayed(function, delay_ns: int):
    clock = time.perf_counter_ns

    def delayed(*args, **kwargs):
        result = function(*args, **kwargs)
        until = clock() + delay_ns
        while clock() < until:
            pass
        return result

    return delayed
