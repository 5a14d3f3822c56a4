"""Receiver-architecture ablation (DESIGN.md §5, "sample-level" rationale).

The default 802.15.4 receiver model demodulates through the MSK
equivalence (discriminator + Hamming despreading).  A sceptic could ask
whether WazaBee only works against that architecture.  This bench decodes
the same diverted-BLE captures with the textbook noncoherent matched-filter
bank and sweeps SNR: both accept the emission, with the correlator holding
on slightly longer — the compatibility is a property of the waveform.
"""

import numpy as np

from repro.core.encoding import frame_to_msk_bits
from repro.core.rx import decode_payload_bits
from repro.dot15d4.frames import Address, build_data
from repro.dsp.coherent import CorrelatorBank
from repro.dsp.gfsk import FskDemodulator, FskModulator, GfskConfig
from repro.dsp.impairments import awgn
from repro.dsp.msk import chips_to_transitions
from repro.phy.ieee802154 import Ppdu


def _frame():
    return build_data(
        Address(pan_id=0x1234, address=1),
        Address(pan_id=0x1234, address=2),
        b"ablate-rx",
        sequence_number=1,
    )


def _discriminator_ok(sig, ppdu) -> bool:
    demod = FskDemodulator(GfskConfig(8, 0.5, None), 2e6)
    chips = ppdu.to_chips()
    sync = chips_to_transitions(chips[:64], start_index=0)
    disc = demod.discriminate(sig)
    found = demod.find_sync(disc, sync, power=np.abs(sig.samples[:-1]) ** 2)
    if found is None:
        return False
    start = found.start + sync.size * 8
    count = min(chips.size, demod.available_bits(disc, start))
    bits = demod.decide_bits(
        disc, start, count, dc=found.dc_offset / demod.frequency_deviation
    )
    # The sync template covered two preamble symbols, so the stream that
    # follows is symbol-aligned and the WazaBee stride decoder applies.
    decoded = decode_payload_bits(bits)
    return decoded is not None and decoded.psdu == ppdu.psdu


def _correlator_ok(bank, sig, ppdu) -> bool:
    start = bank.acquire(sig)
    if start is None:
        return False
    decoded = bank.decode(sig, start, max_symbols=ppdu.num_symbols)
    sfd = Ppdu.find_sfd(decoded.symbols)
    if sfd is None:
        return False
    parsed = Ppdu.parse_symbols(decoded.symbols[sfd:])
    return parsed is not None and parsed.psdu == ppdu.psdu


def test_ablation_receiver_architectures(benchmark, report):
    frame = _frame()
    ppdu = Ppdu(frame.to_bytes())
    clean = FskModulator(GfskConfig(8, 0.5, 0.5), 2e6).modulate(
        frame_to_msk_bits(frame.to_bytes())
    )
    bank = CorrelatorBank()
    snrs = (12.0, 8.0, 4.0, 0.0, -2.0)
    trials = 10

    def sweep():
        results = {}
        for snr in snrs:
            disc_ok = corr_ok = 0
            for trial in range(trials):
                rng = np.random.default_rng(100 * trial + int(snr * 10) + 1000)
                sig = awgn(clean, snr, rng)
                disc_ok += int(_discriminator_ok(sig, ppdu))
                corr_ok += int(_correlator_ok(bank, sig, ppdu))
            results[snr] = (disc_ok / trials, corr_ok / trials)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation: discriminator vs matched-filter 802.15.4 receivers "
        "decoding the diverted BLE emission",
        "\n".join(
            f"SNR {snr:>5.1f} dB: discriminator {d:.0%}, correlator {c:.0%}"
            for snr, (d, c) in results.items()
        ),
    )
    # Both architectures accept the pivot at workable SNR.
    assert results[12.0][0] == 1.0 and results[12.0][1] == 1.0
    assert results[8.0][1] == 1.0
    # The matched filter degrades no earlier than the discriminator.
    for snr in snrs:
        assert results[snr][1] >= results[snr][0] - 0.2
