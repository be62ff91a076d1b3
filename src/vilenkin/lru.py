"""Byte-bounded least-recently-used caches of read-only values.

A cache is an ``OrderedDict`` that its module owns, with a byte budget of
its own; each value states its size as ``nbytes``.  ``kernels`` keeps its
block tables in one and ``means`` its sweep plans in another.  One lock
guards every lookup and insertion.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

_lock = threading.Lock()


def get(cache: OrderedDict, key):
    """The value kept under ``key``, now the most recently used, or None."""
    with _lock:
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
        return hit


def put(cache: OrderedDict, key, value, budget: int):
    """Keep ``value`` under ``key`` and return the value the cache holds there.

    A value another thread kept first under the same key wins, so all
    callers share one.  The least recently used values go until the kept
    bytes fit ``budget``; a value larger than the budget is returned but
    not kept.
    """
    with _lock:
        if value.nbytes <= budget:
            value = cache.setdefault(key, value)
            cache.move_to_end(key)
        while sum(v.nbytes for v in cache.values()) > budget:
            cache.popitem(last=False)
    return value
