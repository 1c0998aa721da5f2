"""Packet fast paths agree with their reference definitions.

``header_checksum`` reads a per-kind word table instead of encoding
``kind.value`` per packet, and ``clone``/``seal`` copy ``__dict__``
instead of re-running the dataclass ``__init__``; both must be
indistinguishable from the straightforward versions for every kind.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.packet import (
    KIND_NAME,
    Packet,
    PacketKind,
    clone,
    header_checksum,
    seal,
)

FIELDS = [field.name for field in dataclasses.fields(Packet)]

_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_node = st.integers(min_value=0, max_value=2**16)
#: every field but ``kind``; rel_seq is -1 when the reliability layer is off
FIELD_VALUES = {
    "src": _node,
    "dst": _node,
    "match_bits": st.integers(min_value=0, max_value=2**42 - 1),
    "payload_bytes": st.integers(min_value=0, max_value=2**20),
    "send_id": _u64,
    "recv_id": _u64,
    "seq": st.integers(min_value=0, max_value=2**32),
    "rel_seq": st.integers(min_value=-1, max_value=2**32),
    "checksum": _u64,
}

packet_fields = st.fixed_dictionaries(FIELD_VALUES)
#: any subset of fields, kind included, with new values
changes = st.fixed_dictionaries(
    {}, optional={"kind": st.sampled_from(list(PacketKind)), **FIELD_VALUES}
)


def reference_checksum(packet: Packet) -> int:
    """FNV-1a over the header fields, encoding the kind per call."""
    digest = 0xCBF29CE484222325
    for word in (
        int.from_bytes(packet.kind.value.encode(), "little"),
        packet.src,
        packet.dst,
        packet.match_bits,
        packet.payload_bytes,
        packet.send_id,
        packet.recv_id,
        packet.rel_seq & 0xFFFFFFFF,
    ):
        digest ^= word
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


def field_values(packet: Packet) -> dict:
    return {name: getattr(packet, name) for name in FIELDS}


@pytest.mark.parametrize("kind", list(PacketKind), ids=lambda kind: kind.name)
class TestPacketFastPaths:
    @settings(max_examples=50, deadline=None)
    @given(fields=packet_fields)
    def test_checksum_table_matches_reference(self, kind, fields):
        packet = Packet(kind=kind, **fields)
        assert header_checksum(packet) == reference_checksum(packet)

    @settings(max_examples=50, deadline=None)
    @given(fields=packet_fields, delta=changes)
    def test_clone_equals_dataclasses_replace(self, kind, fields, delta):
        packet = Packet(kind=kind, **fields)
        before = field_values(packet)
        copy = clone(packet, **delta)
        reference = dataclasses.replace(packet, **delta)
        assert type(copy) is Packet
        assert field_values(copy) == field_values(reference)
        assert copy == reference
        assert field_values(packet) == before

    @settings(max_examples=50, deadline=None)
    @given(
        fields=packet_fields,
        rel_seq=st.integers(min_value=0, max_value=2**32),
        dst=_node,
    )
    def test_seal_equals_two_replaces(self, kind, fields, rel_seq, dst):
        packet = Packet(kind=kind, **fields)
        for extra in ({}, {"dst": dst}):
            stamped = dataclasses.replace(packet, rel_seq=rel_seq, **extra)
            stamped = dataclasses.replace(stamped, checksum=reference_checksum(stamped))
            sealed = seal(packet, rel_seq, **extra)
            assert field_values(sealed) == field_values(stamped)

    def test_kind_name_table(self, kind):
        assert KIND_NAME[kind] == kind.name
