"""Radio transceiver front-end.

A :class:`Transceiver` is the analogue half of a chip model: it owns tuning,
transmit power, the receive channel filter, carrier-frequency error and the
half-duplex constraint.  Digital modems (GFSK, O-QPSK) live in the chip
models; the transceiver only moves :class:`IQSignal` vectors to and from the
medium.
"""

from __future__ import annotations

from typing import (
    Callable,
    Hashable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dsp.filters import apply_filter, fir_lowpass
from repro.dsp.signal import IQSignal
from repro.radio.medium import RfMedium, Transmission

__all__ = ["StackedReceiver", "Transceiver"]

CaptureHandler = Callable[[IQSignal, Transmission], None]


class StackedReceiver(Protocol):
    """A receiver that decodes its capture as one row of a stack.

    The medium delivers a transmission to all of its receivers at once:
    it filters each receiver's row, decodes the rows of receivers with
    equal :attr:`stack_key` in one :meth:`decode_rows` call, then hands
    each row's result to its receiver's :meth:`take_row`, in delivery
    order.  Decoding must be pure and row-invariant — a row's result may
    not depend on the other rows of its stack — so that it equals the
    result of decoding the row alone at hand-out time.
    """

    @property
    def stack_key(self) -> Hashable:
        """The decoder configuration: rows with equal keys share a stack."""

    def decode_rows(self, rows: np.ndarray) -> Sequence[object]:
        """One result per row of equal-length filtered basebands ``(F, N)``."""

    def take_row(self, result: object, duration_s: float) -> None:
        """Receive *result*, decoded from a capture *duration_s* long."""


class Transceiver:
    """A tunable half-duplex 2.4 GHz radio front-end.

    Parameters
    ----------
    medium:
        The shared RF medium.
    name:
        Human-readable identifier (shows up in logs and experiment output).
    position:
        (x, y) in metres; drives path loss.
    bandwidth_hz:
        Receive channel filter bandwidth (2 MHz for both BLE and 802.15.4).
    tx_power_dbm:
        Transmit power.
    cfo_std_hz:
        Standard deviation of the per-transmission carrier-frequency error —
        the main analogue quality difference between chip models (the
        nRF52832's looser crystal vs the CC1352-R1).
    noise_figure_db:
        Added to the medium's thermal floor for this receiver.
    rng:
        The carrier-frequency-error stream.  By default it is derived
        from the medium's seed, keyed by *name*, at the first draw.
    tuned_hz:
        The initial tuning; the radio is indexed by the medium at it.
    """

    #: The precision of filtered captures, on the stacked and the one-row
    #: delivery path alike: ``None`` keeps the medium's ``complex128``; a
    #: chip model whose receive chain runs in single precision sets
    #: ``complex64``.
    capture_dtype: Optional[np.dtype] = None

    def __init__(
        self,
        medium: RfMedium,
        name: str,
        position: Tuple[float, float] = (0.0, 0.0),
        bandwidth_hz: float = 2e6,
        tx_power_dbm: float = 0.0,
        cfo_std_hz: float = 0.0,
        noise_figure_db: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        rx_filter_taps: int = 49,
        tuned_hz: float = 2440e6,
    ):
        self.medium = medium
        self.name = name
        self._position: Tuple[float, float] = tuple(position)
        self.bandwidth_hz = bandwidth_hz
        self.tx_power_dbm = tx_power_dbm
        self.cfo_std_hz = cfo_std_hz
        self.noise_figure_db = noise_figure_db
        self._rng = rng
        self.tuned_hz: float = self._ism_checked(tuned_hz)
        self._listening = False
        self._handler: Optional[CaptureHandler] = None
        #: The receiver that takes this radio's rows of a stack, if any.
        self.stacked_receiver: Optional[StackedReceiver] = None
        self._transmit_until: float = -1.0
        self._filter = fir_lowpass(
            cutoff_hz=bandwidth_hz * 0.65,
            sample_rate=medium.sample_rate,
            num_taps=rx_filter_taps,
        )
        # Grow-only sample-index ramp for the per-transmission CFO
        # rotation; frames are near-constant length, so steady-state
        # transmits allocate no index vector.
        self._cfo_ramp = np.empty(0, dtype=np.int64)
        medium.attach(self)

    @property
    def rng(self) -> np.random.Generator:
        """The carrier-frequency-error stream.

        Derived from the medium's seed, keyed by name, at the first draw:
        the same stream as deriving it at construction, so an experiment
        is reproducible end to end from one seed, and a radio that never
        transmits pays for no generator.
        """
        if self._rng is None:
            self._rng = self.medium.derive_rng(self.name)
        return self._rng

    # -- tuning / state ------------------------------------------------------
    @property
    def position(self) -> Tuple[float, float]:
        """(x, y) in metres; assigning notifies the medium (cell migration)."""
        return self._position

    @position.setter
    def position(self, value: Tuple[float, float]) -> None:
        self._position = tuple(value)
        self.medium.radio_moved(self)

    def _ism_checked(self, frequency_hz: float) -> float:
        if not 2.4e9 <= frequency_hz <= 2.5e9:
            raise ValueError(
                f"{self.name}: frequency {frequency_hz / 1e6:.1f} MHz outside "
                "the 2.4-2.5 GHz ISM band"
            )
        return frequency_hz

    def tune(self, frequency_hz: float) -> None:
        """Retune the synthesiser (applies to both TX and RX)."""
        self.tuned_hz = self._ism_checked(frequency_hz)
        self.medium.radio_retuned(self)

    @property
    def is_listening(self) -> bool:
        return self._listening and self.medium.scheduler.now >= self._transmit_until

    @property
    def is_transmitting(self) -> bool:
        """True while a transmission of ours is still on the air."""
        return self.medium.scheduler.now < self._transmit_until

    def start_rx(
        self, handler: CaptureHandler, stacked: Optional[StackedReceiver] = None
    ) -> None:
        """Enter receive mode; *handler* gets (filtered capture, transmission).

        With *stacked*, the medium decodes this radio's captures as rows
        of a stack and hands the results to *stacked* instead; *handler*
        then only takes captures delivered one at a time.
        """
        self._handler = handler
        self.stacked_receiver = stacked
        self._listening = True

    def stop_rx(self) -> None:
        self._listening = False
        self._handler = None
        self.stacked_receiver = None

    # -- transmit ---------------------------------------------------------------
    def transmit(self, baseband: IQSignal) -> Transmission:
        """Transmit a baseband signal at the current tuning.

        A per-transmission carrier-frequency error (drawn from
        ``cfo_std_hz``) is applied before the signal reaches the medium —
        modelling crystal tolerance, which the *receiver* must absorb.
        """
        if baseband.sample_rate != self.medium.sample_rate:
            raise ValueError(
                f"{self.name}: baseband sample rate {baseband.sample_rate} "
                f"differs from medium rate {self.medium.sample_rate}"
            )
        cfo = float(self.rng.normal(0.0, self.cfo_std_hz)) if self.cfo_std_hz else 0.0
        if cfo == 0.0:
            samples = baseband.samples
        else:
            # Same rotation (and identical float expression, hence
            # bit-identical output) as dsp.impairments.apply_frequency_offset,
            # but with the index ramp reused across transmissions.
            if self._cfo_ramp.size < len(baseband):
                self._cfo_ramp = np.arange(len(baseband), dtype=np.int64)
            n = self._cfo_ramp[: len(baseband)]
            samples = baseband.samples * np.exp(
                2j * np.pi * cfo * n / baseband.sample_rate
            )
        on_air = IQSignal(samples, self.medium.sample_rate, self.tuned_hz)
        tx = self.medium.transmit(self, on_air, self.tx_power_dbm)
        self._transmit_until = tx.end_time
        return tx

    # -- receive -----------------------------------------------------------------
    def handle_capture(self, capture: IQSignal, tx: Transmission) -> None:
        """Called by the medium at end-of-airtime; applies channel filtering."""
        if self._handler is None:
            return
        filtered = IQSignal(
            self.filter_samples(capture.samples),
            capture.sample_rate,
            capture.center_frequency,
        )
        self._handler(filtered, tx)

    @property
    def filter_taps(self) -> np.ndarray:
        """The receive channel filter's (shared, read-only) taps."""
        return self._filter

    def filter_samples(
        self, samples: Union[np.ndarray, Sequence[np.ndarray]]
    ) -> np.ndarray:
        """The receive channel filter, into a fresh array.

        *samples* is one capture or the rows of a stack; the output is in
        :attr:`capture_dtype`.
        """
        return apply_filter(self._filter, samples, self.capture_dtype)

    def __repr__(self) -> str:
        return (
            f"Transceiver({self.name!r}, tuned={self.tuned_hz / 1e6:.1f} MHz, "
            f"listening={self.is_listening})"
        )
