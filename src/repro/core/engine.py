"""Host execution-engine selection: ``vectorized`` vs ``looped``.

The numeric pipelines have two host implementations of every
per-``(batch, head)`` hot path:

* ``looped`` — the seed's reference implementation: one Python iteration
  per attention unit / per sentence.  Kept verbatim so the vectorized
  engine can be validated against it (equivalence tests) and benchmarked
  against it (``repro bench``).
* ``vectorized`` — the default: length-bucketed batched execution (see
  :mod:`repro.attention.bucketed`) and loop-free packing metadata.

Both engines record **byte-identical** :class:`~repro.gpusim.kernel.KernelLaunch`
descriptors — the engine only changes how the host arrives at the same
numbers, never what the simulated GPU is modelled to do.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

#: seed-faithful per-unit Python loops
LOOPED = "looped"
#: length-bucketed batched execution (default)
VECTORIZED = "vectorized"

#: every selectable engine, most conservative first
ENGINES: tuple[str, ...] = (LOOPED, VECTORIZED)

_ENGINES = ENGINES

_current_engine = VECTORIZED


def get_engine() -> str:
    """The active host execution engine name."""
    return _current_engine


def set_engine(name: str) -> None:
    """Select the host execution engine globally."""
    global _current_engine
    if name not in _ENGINES:
        raise ValueError(f"unknown engine {name!r}; pick one of {_ENGINES}")
    _current_engine = name


def is_vectorized() -> bool:
    """Whether the vectorized engine is active."""
    return _current_engine == VECTORIZED


@contextlib.contextmanager
def use_engine(name: str) -> Iterator[str]:
    """Temporarily switch the execution engine within a ``with`` block."""
    previous = get_engine()
    set_engine(name)
    try:
        yield name
    finally:
        set_engine(previous)
