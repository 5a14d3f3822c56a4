"""Complex-baseband signal container.

An :class:`IQSignal` is a vector of complex samples together with the sample
rate and the RF centre frequency the samples are referenced to.  The RF
medium (:mod:`repro.radio.medium`) mixes signals between centre frequencies,
which is how a BLE emission on 2420 MHz lands — frequency-shifted — in the
passband of a Zigbee receiver tuned to the same channel.

Frequencies are plain floats in hertz; sample counts are integers.  Samples
are ``complex128``, except that ``complex64`` samples (a single-precision
receive chain's filtered capture) keep their precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IQSignal"]


@dataclass
class IQSignal:
    """Complex baseband samples referenced to an RF centre frequency.

    Parameters
    ----------
    samples:
        Complex baseband sample vector.
    sample_rate:
        Samples per second.
    center_frequency:
        RF frequency (Hz) that baseband DC corresponds to.
    """

    samples: np.ndarray
    sample_rate: float
    center_frequency: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples)
        if samples.dtype != np.complex64:
            samples = samples.astype(np.complex128, copy=False)
        self.samples = samples
        if self.samples.ndim != 1:
            raise ValueError("IQSignal samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    # -- basic properties ---------------------------------------------------
    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        """Signal duration in seconds."""
        return self.samples.size / self.sample_rate

    def power(self) -> float:
        """Mean sample power (linear)."""
        if not self.samples.size:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def energy(self) -> float:
        """Total sample energy (sum of |x|^2)."""
        return float(np.sum(np.abs(self.samples) ** 2))

    # -- transformations ------------------------------------------------------
    def scaled(self, gain: float) -> "IQSignal":
        """Return an amplitude-scaled copy."""
        return IQSignal(self.samples * gain, self.sample_rate, self.center_frequency)

    def delayed(self, samples: int) -> "IQSignal":
        """Return a copy with *samples* zeros prepended."""
        if samples < 0:
            raise ValueError("delay must be non-negative")
        padded = np.concatenate(
            [np.zeros(samples, dtype=np.complex128), self.samples]
        )
        return IQSignal(padded, self.sample_rate, self.center_frequency)

    def padded(self, samples: int) -> "IQSignal":
        """Return a copy with *samples* zeros appended."""
        if samples < 0:
            raise ValueError("padding must be non-negative")
        padded = np.concatenate(
            [self.samples, np.zeros(samples, dtype=np.complex128)]
        )
        return IQSignal(padded, self.sample_rate, self.center_frequency)

    def mixed_to(self, new_center: float) -> "IQSignal":
        """Re-reference the signal to a different RF centre frequency.

        A signal occupying frequency f at RF appears at baseband offset
        ``f - center``; retuning to ``new_center`` shifts every component by
        ``center - new_center``.
        """
        shift = self.center_frequency - new_center
        if shift == 0.0:
            samples = self.samples.copy()
        else:
            n = np.arange(self.samples.size)
            samples = self.samples * np.exp(
                2j * np.pi * shift * n / self.sample_rate
            )
        return IQSignal(samples, self.sample_rate, new_center)

    def sliced(self, start: int, stop: int) -> "IQSignal":
        """Return samples[start:stop] as a new signal."""
        return IQSignal(
            self.samples[start:stop], self.sample_rate, self.center_frequency
        )

    def instantaneous_phase(self) -> np.ndarray:
        """Unwrapped instantaneous phase in radians."""
        return np.unwrap(np.angle(self.samples))

    def instantaneous_frequency(self) -> np.ndarray:
        """Per-sample instantaneous frequency estimate in hertz.

        Computed from the phase of the one-sample lag product, the same
        quantity a quadrature FM discriminator measures.  Length is
        ``len(self) - 1``.
        """
        if self.samples.size < 2:
            return np.zeros(0)
        lag = self.samples[1:] * np.conj(self.samples[:-1])
        return np.angle(lag) * self.sample_rate / (2.0 * np.pi)

    # -- combination -----------------------------------------------------------
    def add(self, other: "IQSignal") -> "IQSignal":
        """Superpose another signal (must share sample rate and centre).

        The shorter signal is zero-padded at the end.
        """
        if other.sample_rate != self.sample_rate:
            raise ValueError("sample rates differ")
        if other.center_frequency != self.center_frequency:
            raise ValueError(
                "centre frequencies differ; call mixed_to() first"
            )
        n = max(self.samples.size, other.samples.size)
        out = np.zeros(n, dtype=np.complex128)
        out[: self.samples.size] += self.samples
        out[: other.samples.size] += other.samples
        return IQSignal(out, self.sample_rate, self.center_frequency)

    @staticmethod
    def silence(
        num_samples: int, sample_rate: float, center_frequency: float = 0.0
    ) -> "IQSignal":
        """An all-zeros signal."""
        return IQSignal(
            np.zeros(num_samples, dtype=np.complex128),
            sample_rate,
            center_frequency,
        )
