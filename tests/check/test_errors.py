"""The typed decode-error contract (ISSUE satellites a-c).

Corrupt streams must raise :class:`DecodeError` subclasses — never a
foreign exception like numpy's ``ValueError: repeats may not contain
negative values`` — and clean containers must come out of the encoders
frozen (read-only payload and metadata arrays).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.check.faults import FORMAT_ENCODERS
from repro.core.efg import check_decode_batch, decode_lists, efg_encode, validate_efg
from repro.core.errors import CorruptMetadataError, CorruptStreamError, DecodeError
from repro.core.kernels import decompress_single_list
from repro.core.pefgraph import pefg_encode
from repro.ef.partitioned import pef_from_blob
from repro.formats.bv import bv_encode
from repro.formats.cgr import _read_varint, cgr_encode
from repro.formats.ligra_plus import ligra_encode


class TestErrorHierarchy:
    def test_subclassing(self):
        assert issubclass(CorruptStreamError, DecodeError)
        assert issubclass(CorruptMetadataError, DecodeError)
        assert issubclass(DecodeError, Exception)

    def test_message_carries_context(self):
        err = CorruptStreamError("bad stop bits", fmt="efg", vertex=4)
        assert "efg" in str(err)
        assert "4" in str(err)
        assert err.fmt == "efg"
        assert err.vertex == 4
        assert err.detail == "bad stop bits"

    def test_message_without_context(self):
        assert str(CorruptStreamError("plain")) == "plain"


class TestCorruptNumLowerBits:
    """Satellite (b): the numpy-ValueError escape path is closed."""

    def _corrupt(self, graph, l_value=60):
        efg = efg_encode(graph)
        nlb = efg.num_lower_bits.copy()
        victim = int(np.argmax(graph.degrees))
        nlb[victim] = l_value
        mutated = replace(efg, num_lower_bits=nlb)
        return mutated, victim

    def test_batched_decode_raises_typed_error(self, small_graph):
        mutated, victim = self._corrupt(small_graph)
        with pytest.raises(CorruptMetadataError) as exc_info:
            decode_lists(mutated, np.arange(mutated.num_nodes, dtype=np.int64))
        assert exc_info.value.vertex == victim
        assert str(victim) in str(exc_info.value)

    def test_kernel_decode_raises_typed_error(self, small_graph):
        mutated, victim = self._corrupt(small_graph)
        with pytest.raises(CorruptMetadataError):
            decompress_single_list(mutated, victim)

    def test_edge_at_raises_typed_error(self, small_graph):
        mutated, victim = self._corrupt(small_graph)
        with pytest.raises(CorruptMetadataError):
            mutated.edge_at(victim, 0)

    def test_l_above_64_rejected(self, small_graph):
        mutated, victim = self._corrupt(small_graph, l_value=77)
        with pytest.raises(CorruptMetadataError):
            check_decode_batch(
                mutated, np.array([victim], dtype=np.int64)
            )


class TestStructuralValidation:
    def test_validate_clean_graph(self, small_graph):
        validate_efg(efg_encode(small_graph))

    def test_non_monotone_vlist_detected(self, small_graph):
        efg = efg_encode(small_graph)
        vlist = efg.vlist.copy()
        vlist[3], vlist[4] = vlist[4] + 5, vlist[3]
        mutated = replace(efg, vlist=vlist)
        with pytest.raises(CorruptMetadataError):
            validate_efg(mutated)

    def test_offsets_past_payload_detected(self, small_graph):
        efg = efg_encode(small_graph)
        offsets = efg.offsets.copy()
        offsets[-1] = efg.data.shape[0] + 100
        mutated = replace(efg, offsets=offsets)
        with pytest.raises(CorruptMetadataError):
            validate_efg(mutated)

    def test_truncated_upper_section_detected(self, small_graph):
        efg = efg_encode(small_graph)
        mutated = replace(efg, data=efg.data[: efg.data.shape[0] - 4].copy())
        with pytest.raises(DecodeError):
            decode_lists(mutated, np.arange(mutated.num_nodes, dtype=np.int64))


class TestIntegrityChecksums:
    @pytest.mark.parametrize("fmt", sorted(FORMAT_ENCODERS))
    def test_clean_container_passes(self, small_graph, fmt):
        FORMAT_ENCODERS[fmt](small_graph).verify_integrity()

    @pytest.mark.parametrize("fmt", sorted(FORMAT_ENCODERS))
    def test_payload_flip_caught(self, small_graph, fmt):
        container = FORMAT_ENCODERS[fmt](small_graph)
        data = getattr(container, container.PAYLOAD_FIELD).copy()
        data[0] ^= 1
        mutated = replace(container, **{container.PAYLOAD_FIELD: data})
        with pytest.raises(CorruptStreamError):
            mutated.verify_integrity()

    @pytest.mark.parametrize("fmt", sorted(FORMAT_ENCODERS))
    def test_metadata_flip_caught(self, small_graph, fmt):
        container = FORMAT_ENCODERS[fmt](small_graph)
        name = sorted(container.METADATA_FIELDS)[0]
        arr = getattr(container, name).copy()
        arr[0] += 1
        with pytest.raises(CorruptMetadataError):
            replace(container, **{name: arr}).verify_integrity()


class TestFrozenArrays:
    """Satellite (c): encoders hand out read-only arrays."""

    def test_efg_arrays_frozen(self, small_graph):
        efg = efg_encode(small_graph)
        for arr in (efg.vlist, efg.num_lower_bits, efg.offsets, efg.data):
            assert not arr.flags.writeable

    def test_bv_arrays_frozen(self, small_graph):
        bv = bv_encode(small_graph)
        assert not bv.offsets.flags.writeable
        assert not bv.data.flags.writeable

    def test_cgr_ligra_pef_arrays_frozen(self, small_graph):
        for container in (
            cgr_encode(small_graph),
            ligra_encode(small_graph),
            pefg_encode(small_graph),
        ):
            assert not container.offsets.flags.writeable
            assert not container.data.flags.writeable


class TestVarintAndPEFGuards:
    def test_varint_truncation_is_typed(self):
        data = np.array([0x80, 0x80], dtype=np.uint8)  # endless continuation
        with pytest.raises(CorruptStreamError):
            _read_varint(data, 0)

    def test_varint_overlong_chain_is_typed(self):
        data = np.full(12, 0x80, dtype=np.uint8)
        with pytest.raises(CorruptStreamError):
            _read_varint(data, 0)

    def test_pef_blob_truncation_is_typed(self, small_graph):
        pef = pefg_encode(small_graph)
        v = int(np.argmax(small_graph.degrees))
        lo, hi = int(pef.offsets[v]), int(pef.offsets[v + 1])
        blob = pef.data[lo:hi]
        with pytest.raises(CorruptStreamError):
            pef_from_blob(blob[: max(1, blob.shape[0] - 3)])
