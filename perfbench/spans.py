"""In-memory span recorder wrapped around the program's public calls.

The traced run installs wrappers from the benchmark's own files; the
program's sources are never edited.  A wrapped function is replaced in
every loaded ``repro`` module that holds it (callers bind functions
with ``from module import name``), and a wrapped method on its class.
:meth:`Recorder.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

from stats import Span

#: called after a wrapped call returns: ``observe(recorder, args,
#: kwargs, result)``
Observer = Callable[["Recorder", tuple, dict, Any], None]

#: ``(module, "func" or "Class.method", span name, observer or None)``
Target = tuple[str, str, str, "Observer | None"]


class Recorder:
    """Spans (name, start, end, parent) plus named counters."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` in start order
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @property
    def spans(self) -> list[Span]:
        return [Span(n, s, e, p) for n, s, e, p in self._spans]

    def wrap(self, fn: Callable, name: str, observe: Observer | None) -> Callable:
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a layer re-entering itself (a gemm built on gemm) stays one
            # span of that layer, and is observed once
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets: list[Target]) -> None:
        for module_name, path, name, observe in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self.wrap(original, name, observe))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, name, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self._spans[0][1] if self._spans else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self._spans):
                record = {
                    "kind": "span",
                    "id": i,
                    "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "parent": parent,
                }
                fh.write(json.dumps(record) + "\n")
