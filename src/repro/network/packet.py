"""Packets: headers plus payload descriptors.

A packet's header carries exactly what the receive side needs to run the
MPI match: the packed {context, source, tag} bits, the payload length and
protocol bookkeeping.  In a real NIC (Fig. 1) "the header and data are
separated (logically, if not physically)"; we keep the payload as a size
only -- the simulation charges time for moving bytes, never the bytes
themselves.
"""

from __future__ import annotations

import dataclasses
import enum

#: wire overhead per packet (routing + match header + CRC), in bytes
HEADER_BYTES = 32


class PacketKind(enum.Enum):
    """Protocol slots used by the MPI implementation."""

    #: eager message: payload travels with the header
    EAGER = "eager"
    #: rendezvous request-to-send: header only, payload held at sender
    RNDV_RTS = "rndv_rts"
    #: rendezvous clear-to-send: receiver tells sender to stream payload
    RNDV_CTS = "rndv_cts"
    #: rendezvous payload
    RNDV_DATA = "rndv_data"
    #: reliability-layer acknowledgement (``rel_seq`` names the acked packet)
    ACK = "ack"
    #: reliability-layer negative ack: receiver saw a corrupt packet and
    #: asks the sender to retransmit ``rel_seq`` immediately
    NACK = "nack"
    #: admission-control refusal: the receiver's unexpected buffers are
    #: full; sender should retry ``rel_seq`` later (backed off, without
    #: spending retry budget -- the receiver is demonstrably alive)
    NACK_BUSY = "nack_busy"

    #: members are singletons compared by identity; Enum's own hash runs a
    #: Python frame per lookup, and the kind-keyed tables below are read
    #: per packet
    __hash__ = object.__hash__


@dataclasses.dataclass(frozen=True)
class Packet:
    """One unit of network traffic."""

    kind: PacketKind
    src: int
    dst: int
    #: packed {context, source, tag} match bits (EAGER / RNDV_RTS)
    match_bits: int
    #: payload length in bytes (0 for control packets)
    payload_bytes: int
    #: sender-side request identifier (rendezvous handshake / completions)
    send_id: int = 0
    #: receiver-side entry identifier (CTS and RNDV_DATA routing)
    recv_id: int = 0
    #: per-(src, dst) monotone sequence number; lets tests assert ordering
    seq: int = 0
    #: reliability-layer sequence number (per (src, dst), stamped by the
    #: NIC's reliability layer; -1 when the layer is off)
    rel_seq: int = -1
    #: header checksum (see :func:`header_checksum`; 0 when the layer is off)
    checksum: int = 0

    @property
    def wire_bytes(self) -> int:
        """Bytes serialized on the wire."""
        carries_payload = self.kind in (PacketKind.EAGER, PacketKind.RNDV_DATA)
        return HEADER_BYTES + (self.payload_bytes if carries_payload else 0)


#: ``kind.name`` per kind, for observability details: ``Enum.name`` is a
#: Python-level property, and details are built per packet
KIND_NAME = {kind: kind.name for kind in PacketKind}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: the checksum's state after its first word, per kind: that word is
#: ``kind.value``'s bytes read little-endian, the same for every packet
#: of the kind
_KIND_DIGEST = {
    kind: (
        (_FNV_OFFSET ^ int.from_bytes(kind.value.encode(), "little")) * _FNV_PRIME
    ) & _MASK64
    for kind in PacketKind
}


def clone(packet: Packet, **fields) -> Packet:
    """``dataclasses.replace(packet, **fields)`` without re-running ``__init__``.

    ``replace`` builds the copy through the full dataclass ``__init__``,
    and stamping is per-packet hot.  Packet has no ``__post_init__``, so
    a field-for-field copy of ``__dict__`` is equivalent.
    """
    copy = object.__new__(Packet)
    copy.__dict__.update(packet.__dict__, **fields)
    return copy


def header_checksum(packet: Packet) -> int:
    """FNV-1a over the header fields the receiver acts on.

    Deliberately excludes the fabric's ``seq`` stamp (re-assigned on every
    injection, so a retransmitted copy would never verify) and the
    ``checksum`` field itself.
    """
    digest = _KIND_DIGEST[packet.kind]
    for word in (
        packet.src,
        packet.dst,
        packet.match_bits,
        packet.payload_bytes,
        packet.send_id,
        packet.recv_id,
        packet.rel_seq & 0xFFFFFFFF,
    ):
        digest = ((digest ^ word) * _FNV_PRIME) & _MASK64
    return digest


def seal(packet: Packet, rel_seq: int, **fields) -> Packet:
    """A copy of ``packet`` with ``fields`` and ``rel_seq`` set, checksummed."""
    sealed = clone(packet, rel_seq=rel_seq, **fields)
    # the copy is private until returned, so stamping it in place keeps
    # the stamp to one clone
    sealed.__dict__["checksum"] = header_checksum(sealed)
    return sealed
