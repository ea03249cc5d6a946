"""Hash-once frozen specs for launch-graph cache keys.

A :class:`~repro.gpusim.graph.GraphCache` key is a tuple that holds
frozen dataclass specs (:class:`~repro.gpusim.device.DeviceSpec` alone
has 20 fields).  The dataclass-generated ``__hash__`` builds and hashes
the tuple of every field on each call, so a warm lookup used to walk
every spec's fields each time its key was hashed.  :func:`cached_hash`
keeps the generated hash, computes it once per object and returns the
stored value from then on: the hash values and ``==`` stay exactly what
the dataclass generates, and a warm key hashes in O(1) per spec.

The stored value sits in the instance ``__dict__`` under a name that is
not a field, so ``fields()``, ``asdict``, ``repr`` and ``==`` never see
it.  It is also left out of pickles and copies: a ``str`` hash is salted
per process, so a hash computed in one process must never be read in
another.
"""

from __future__ import annotations

from typing import Any, TypeVar

T = TypeVar("T", bound=type)

#: the instance attribute holding the computed hash
_HASH_ATTR = "_field_hash_value"


def cached_hash(cls: T) -> T:
    """Class decorator for a frozen dataclass: hash its fields once.

    Apply it above ``@dataclass(frozen=True)``, so that it wraps the
    generated ``__hash__``.  ``cls._field_hash`` is that generated
    function, the one place a spec's fields are hashed.
    """
    if "__hash__" not in cls.__dict__ or cls.__hash__ is None:
        raise TypeError(f"{cls.__name__} has no generated __hash__ to cache")
    cls._field_hash = cls.__hash__

    def __hash__(self: Any) -> int:
        try:
            return self._field_hash_value
        except AttributeError:
            value = type(self)._field_hash(self)
            object.__setattr__(self, _HASH_ATTR, value)
            return value

    def __getstate__(self: Any) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop(_HASH_ATTR, None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls
