"""The list-at-a-time container shared by CGR, Ligra+, BV and PEF."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.check.faults import FORMAT_ENCODERS, default_fuzz_graph
from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.formats.integrity import ListContainer, pack_lists

LIST_FORMATS = ("cgr", "ligra", "bv", "pef")

#: sha256 over ``str(nbytes)``, ``offsets`` and ``data`` of each
#: container of ``default_fuzz_graph()``, recorded before the four
#: formats shared one container class.
PINNED_SHA256 = {
    "cgr": "b71d4926fe1862cef8e1d719cdebe1e3cabc183961b2d6d0fb217b21cdf39fd8",
    "ligra": "32ed914db3b1e1f616eea31fea539c4bf4a053729c98412f368c50900fefacc3",
    "bv": "e4b5002ca30a8997834a52272872cc04f907ef98fd77d4b1b37fa23c1db08492",
    "pef": "2bae0057c82aba91637d7a8662881905c3e7055e5c73fa188f8307c86f9693ef",
}


@pytest.fixture(scope="module")
def graph():
    return default_fuzz_graph()


@pytest.fixture(scope="module", params=LIST_FORMATS)
def container(request, graph):
    return FORMAT_ENCODERS[request.param](graph)


def test_is_a_list_container(container):
    assert isinstance(container, ListContainer)


def test_degrees_computed_once(container, graph):
    assert container.degrees is container.degrees
    assert np.array_equal(container.degrees, graph.degrees)


def test_out_of_range_vertex_is_index_error(container):
    for v in (-1, container.num_nodes):
        with pytest.raises(IndexError):
            container.neighbours(v)


def test_offset_past_payload_names_the_list(container, graph):
    v = int(np.argmax(graph.degrees))
    offsets = container.offsets.copy()
    offsets[v] = container.data.shape[0] + 100
    with pytest.raises(CorruptMetadataError) as exc_info:
        replace(container, offsets=offsets).neighbours(v)
    assert exc_info.value.fmt == container.FMT
    assert exc_info.value.vertex == v


def test_crc_mismatch_names_stored_and_actual(container):
    data = container.data.copy()
    data[0] ^= 1
    with pytest.raises(CorruptStreamError, match=(
        f"payload CRC mismatch: stored {container.payload_crc:#010x} "
        "!= actual 0x"
    )):
        replace(container, data=data).verify_integrity()


def test_bytes_pinned(container):
    h = hashlib.sha256()
    h.update(str(container.nbytes).encode())
    h.update(container.offsets.tobytes())
    h.update(container.data.tobytes())
    assert h.hexdigest() == PINNED_SHA256[container.FMT]


def test_pack_lists_offsets_and_frozen_arrays():
    offsets, data = pack_lists([b"ab", b"", b"cde"])
    assert offsets.tolist() == [0, 2, 2, 5]
    assert data.tobytes() == b"abcde"
    assert not offsets.flags.writeable and not data.flags.writeable
    offsets, data = pack_lists([])
    assert offsets.tolist() == [0] and data.shape == (0,)
