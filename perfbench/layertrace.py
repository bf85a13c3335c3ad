"""Outside-in per-layer tracer for the ``repro`` package.

A ``sys.settrace`` hook installed by the benchmark (nothing in ``src/``
knows about it) watches every Python frame that starts or resumes. Each
frame belongs to the layer of the module whose globals it runs in; a
frame whose layer differs from the one currently running is a *layer
crossing*: the time since the previous crossing is charged to the layer
that was running, and the crossing frame is remembered so that its
return (or, for a generator, its next ``yield``) hands the time back to
the caller's layer. A layer's self time is therefore its own time minus
the child crossings it covers, and the self times of all layers plus
the unattributed remainder add up to the traced wall time.

Generators are the kernel's processes: every ``send`` from the event
loop starts or resumes a generator frame, which counts as a crossing
into the generator's own layer, so a process's execution is charged to
the layer that wrote it and not to the layer that created it.

Frames of code outside the layers (the standard library, the benchmark,
the ``repro`` packages that are not layers) are transparent: their time
goes to the layer that called them. So does code generated at run time
(dataclass ``__init__``, the size handlers of ``net.message``), which
runs in its defining module's globals and so lands in that module's
layer. The per-call cost of the hook itself is charged to whichever
layer is running, which inflates layers that make many small calls;
``overhead`` is reported for that reason.
"""

from __future__ import annotations

import dis
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The layers, in report order: the packages of ``repro`` and the four
#: slices of ``repro.core``.
LAYERS: Tuple[str, ...] = (
    "sim",
    "net",
    "core.pipeline",
    "core.cache",
    "core.autoscale",
    "core.broker",
    "frontend",
    "http",
    "db",
    "metrics",
    "obs",
    "workload",
)

_CORE_SLICES = {
    "pipeline": "core.pipeline",
    "cache": "core.cache",
    "cachetier": "core.cache",
    "clustering": "core.cache",
    "autoscale": "core.autoscale",
}
_PACKAGES = {"sim", "net", "frontend", "http", "db", "metrics", "obs", "workload"}
_GENERATOR_FLAG = 0x20  # inspect.CO_GENERATOR


def layer_of(module: str) -> Optional[str]:
    """The layer of module *module*, or ``None`` for a transparent one."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    package = parts[1]
    if package == "core":
        if len(parts) < 3:
            return "core.broker"
        return _CORE_SLICES.get(parts[2], "core.broker")
    return package if package in _PACKAGES else None


def _first_resume_offset(code) -> int:
    """``f_lasti`` of a generator frame when it starts, not resumes."""
    for instruction in dis.get_instructions(code):
        if instruction.opname == "RESUME":
            return instruction.offset
    return -1


class LayerTrace:
    """Per-layer self time, crossings and named call counts of one run.

    *counted* maps a counter name to the functions whose entries it
    counts. A generator function counts once per call, not once per
    resumption. Use as a context manager around the code to trace.
    """

    def __init__(self, counted: Optional[Dict[str, Sequence[Callable]]] = None) -> None:
        self.counted = dict(counted or {})
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: Generator starts and resumptions driven by the ``sim`` layer.
        self.resumes = 0
        #: Traced time that ran outside every layer.
        self.unattributed_s = 0.0
        self.wall_s = 0.0
        self._stop: Optional[Callable[[], None]] = None

    def __enter__(self) -> "LayerTrace":
        self._stop = self._install()
        return self

    def __exit__(self, *exc) -> None:
        stop, self._stop = self._stop, None
        if stop is not None:
            stop()

    def _install(self) -> Callable[[], None]:
        n = len(LAYERS)
        outside = n
        sim_layer = LAYERS.index("sim")
        layer_index = {name: i for i, name in enumerate(LAYERS)}
        counter_names = list(self.counted)
        # A counted code object is cached as ``layer + 100 * (k + 1)``
        # so the common path stays one integer compare.
        special: Dict[object, Tuple[int, Optional[int]]] = {}
        for k, name in enumerate(counter_names):
            for fn in self.counted[name]:
                code = fn.__code__
                first = (
                    _first_resume_offset(code)
                    if code.co_flags & _GENERATOR_FLAG
                    else None
                )
                special[code] = (k, first)
        cache: Dict[object, int] = {}
        self_s = [0.0] * (n + 1)
        calls = [0] * (n + 1)
        counts = [0] * len(counter_names)
        stack: List[Tuple[int, object]] = []
        resumes = 0
        cur = outside
        last = perf_counter()
        start = last

        def classify(frame) -> int:
            code = frame.f_code
            layer = layer_of(frame.f_globals.get("__name__", "") or "")
            value = -1 if layer is None else layer_index[layer]
            hit = special.get(code)
            if hit is not None:
                value = (value if value >= 0 else outside) + 100 * (hit[0] + 1)
            cache[code] = value
            return value

        def local(frame, event, arg):
            nonlocal cur, last
            if event == "return" and stack and stack[-1][1] is frame:
                now = perf_counter()
                self_s[cur] += now - last
                last = now
                cur = stack.pop()[0]
            return local

        def hook(frame, event, arg):
            nonlocal cur, last, resumes
            code = frame.f_code
            value = cache.get(code)
            if value is None:
                value = classify(frame)
            if cur == sim_layer and code.co_flags & _GENERATOR_FLAG:
                resumes += 1
            if value >= 100:
                k, first = special[code]
                if first is None or frame.f_lasti == first:
                    counts[k] += 1
                value %= 100
                if value == outside:
                    return None
            if value < 0 or value == cur:
                return None
            now = perf_counter()
            self_s[cur] += now - last
            last = now
            stack.append((cur, frame))
            cur = value
            calls[value] += 1
            frame.f_trace_lines = False
            return local

        previous = sys.gettrace()
        sys.settrace(hook)

        def stop() -> None:
            nonlocal cur, last
            sys.settrace(previous)
            now = perf_counter()
            self_s[cur] += now - last
            self.wall_s = now - start
            self.self_s = {name: self_s[i] for i, name in enumerate(LAYERS)}
            self.unattributed_s = self_s[outside]
            self.calls = {name: calls[i] for i, name in enumerate(LAYERS)}
            self.counts = dict(zip(counter_names, counts))
            self.resumes = resumes
            stack.clear()

        return stop
