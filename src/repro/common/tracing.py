"""The no-op tracer that stands in when telemetry is off.

Code that accepts an optional :class:`repro.telemetry.Tracer` falls
back to :data:`NULL_TRACER` and opens spans unconditionally instead of
branching on ``tracer is None``.  It records nothing and reads no
clock, so it cannot change a result, and importing it does not load
the telemetry package.
"""

from __future__ import annotations


class NullTracer:
    """A tracer whose spans are no-op context managers."""

    __slots__ = ()

    def span(self, name: str, category: str = "phase", **args: object) -> "NullTracer":
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: The shared no-op tracer.
NULL_TRACER = NullTracer()
