"""The in-process subscriber sink the service tests collect records with."""

import threading
import time
from typing import Optional

from repro.serve.session import Sink


class CollectingSink(Sink):
    """In-process sink for tests: buffers bytes, optionally throttled.

    *delay_per_write_s* simulates a slow consumer; *fail_after* raises
    ``OSError`` on the Nth write (socket-error chaos); *stall_event*,
    when set, blocks writes until cleared (stalled-subscriber chaos).
    """

    def __init__(
        self,
        delay_per_write_s: float = 0.0,
        fail_after: Optional[int] = None,
        stall_event: Optional[threading.Event] = None,
    ):
        self.data = bytearray()
        self.writes = 0
        self.closed = False
        self.delay_per_write_s = delay_per_write_s
        self.fail_after = fail_after
        self.stall_event = stall_event
        self._lock = threading.Lock()

    def write(self, data: bytes) -> None:
        if self.stall_event is not None:
            # Block while the stall is active (the chaos controller
            # clears the event to release the subscriber).
            while self.stall_event.is_set():
                time.sleep(0.005)
        if self.delay_per_write_s:
            time.sleep(self.delay_per_write_s)
        with self._lock:
            self.writes += 1
            if self.fail_after is not None and self.writes > self.fail_after:
                raise OSError("injected sink failure")
            self.data.extend(data)

    def close(self) -> None:
        self.closed = True

    def lines(self) -> list:
        with self._lock:
            return [line for line in bytes(self.data).split(b"\n") if line]
