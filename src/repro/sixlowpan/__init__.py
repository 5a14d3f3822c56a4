"""6LoWPAN adaptation layer (RFC 4944 / RFC 6282 subset).

The paper's conclusion stresses that WazaBee reaches "each system
communicating via a protocol based on the 802.15.4 standard (Zigbee,
6LoWPan ...)".  This package supplies the 6LoWPAN side: IPv6/UDP header
compression (IPHC + UDP NHC), RFC 4944 fragmentation/reassembly, and an
adaptation layer delivering the datagrams a MAC receives — enough to run
the paper's data-exfiltration motif end-to-end over the pivot
(``examples/sixlowpan_exfiltration.py``, whose sender builds its frames
by hand).
"""

from repro.sixlowpan.ipv6 import Ipv6Header, UdpDatagram, link_local_address
from repro.sixlowpan.iphc import compress_datagram, decompress_datagram
from repro.sixlowpan.fragmentation import fragment_datagram, Reassembler
from repro.sixlowpan.adaptation import SixLowpanAdaptation

__all__ = [
    "Ipv6Header",
    "UdpDatagram",
    "link_local_address",
    "compress_datagram",
    "decompress_datagram",
    "fragment_datagram",
    "Reassembler",
    "SixLowpanAdaptation",
]
