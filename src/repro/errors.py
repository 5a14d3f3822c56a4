"""Exception taxonomy for the radio stack.

The simulator distinguishes three failure families:

``RadioError``
    Root of everything the radio stack raises on purpose.  Subclassing
    :class:`RuntimeError` keeps historical ``except RuntimeError`` callers
    working.
``DecodeError``
    A capture was received but could not be turned into a frame (no SFD,
    truncated PHR/PSDU, or decode confidence below threshold).  Raised only
    by the *strict* decode paths; the event-driven paths keep returning
    ``None`` so a noisy capture never tears down a receive loop.
``repro.chips.capabilities.CapabilityError``
    The chip (or its exposed API) refuses an operation — e.g. whitening
    cannot be disabled on the nRF51822's ShockBurst mode.  It subclasses
    :class:`RadioError` so capability gaps can be handled uniformly, and it
    is the *only* exception the WazaBee primitives swallow when probing
    optional radio features.
``ServiceError``
    The streaming sniffer service (``repro serve``) failed a supervision
    or flow-control contract: a subscriber overflowed its bounded ring
    under the ``block`` policy (:class:`SessionOverflow`) or a spool file
    is unreadable beyond its crash-safe truncated tail
    (:class:`SpoolError`).  A session that stops making progress past its
    stall timeout is closed with reason ``"stalled"``; nothing is raised.
"""

from __future__ import annotations

__all__ = [
    "RadioError",
    "DecodeError",
    "ServiceError",
    "SessionOverflow",
    "SpoolError",
]


class RadioError(RuntimeError):
    """Base class for deliberate radio-stack failures."""


class DecodeError(RadioError):
    """A capture could not be decoded into a frame.

    Parameters
    ----------
    reason:
        Machine-readable failure class: ``"no-sfd"``, ``"truncated"`` or
        ``"low-confidence"``.
    mean_distance:
        Mean Hamming distance of the matched blocks, when decoding got far
        enough to measure it.
    """

    def __init__(self, reason: str, mean_distance: float = 0.0):
        super().__init__(f"decode failed: {reason}")
        self.reason = reason
        self.mean_distance = mean_distance


class ServiceError(RadioError):
    """Base class for sniffer-service (``repro serve``) failures."""


class SessionOverflow(ServiceError):
    """A subscriber's bounded ring rejected a record.

    Raised only under the ``block`` backpressure policy when the producer
    waited the full stall timeout without the consumer freeing a slot —
    the signal the session supervisor converts into a disconnect.
    """

    def __init__(self, session: str, capacity: int, waited_s: float):
        super().__init__(
            f"session {session!r} ring full (capacity {capacity}) "
            f"after blocking {waited_s:.3f}s"
        )
        self.session = session
        self.capacity = capacity
        self.waited_s = waited_s


class SpoolError(ServiceError):
    """A spool file failed validation beyond its crash-safe partial tail."""
