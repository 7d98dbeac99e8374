"""Run-scoped counters: chunks and bytes read, and merge bytes shipped.

Chunk reads and aggregate runs add to the innermost ``metered()`` block
open in the current context. A block adds its totals to the one enclosing
it when it ends, so nested measurements compose and concurrent ones never
see each other's counts.
"""

import contextlib
import contextvars
from dataclasses import dataclass

_current = contextvars.ContextVar("meter", default=None)


@dataclass
class Meter:
    """The counts of one ``metered()`` block. Only code running in the
    context that opened the block updates it, so it takes no lock."""

    chunks_read: int = 0
    bytes_read: int = 0
    merge_bytes: int = 0


@contextlib.contextmanager
def metered():
    """Measure the enclosed block; yields its ``Meter``."""
    meter = Meter()
    token = _current.set(meter)
    try:
        yield meter
    finally:
        _current.reset(token)
        record(**vars(meter))


def record(**counts):
    """Add ``counts`` (``Meter`` field -> amount) to the current meter."""
    meter = _current.get()
    if meter is not None:
        for name, n in counts.items():
            setattr(meter, name, getattr(meter, name) + n)
