"""Container layout: round-trip identity, O(1) opens, typed corruption."""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.errors import (
    CorruptMetadataError,
    CorruptStreamError,
    DecodeError,
)
from repro.serve.container import (
    GraphContainer,
    container_paths,
    is_container,
    open_container,
    save_container,
)


def _file_hashes(base):
    return [
        hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in container_paths(base)
    ]


@pytest.fixture
def base(small_graph, tmp_path):
    base = str(tmp_path / "g")
    save_container(small_graph, base)
    return base


class TestRoundTrip:
    def test_graph_round_trips(self, small_graph, base):
        loaded = open_container(base).to_graph()
        assert np.array_equal(loaded.vlist, small_graph.vlist)
        assert np.array_equal(loaded.elist, small_graph.elist)
        assert loaded.directed == small_graph.directed
        assert loaded.name == small_graph.name

    def test_resave_is_byte_identical(self, small_graph, base):
        first = _file_hashes(base)
        save_container(small_graph, base)
        assert _file_hashes(base) == first

    def test_epoch_stable_across_saves_and_opens(self, small_graph, base):
        image = GraphContainer.from_graph(small_graph)
        assert open_container(base).epoch == image.epoch
        assert len(image.epoch) == 16

    def test_epoch_changes_with_content(self, small_graph):
        a = GraphContainer.from_graph(small_graph)
        mutated = small_graph.elist.copy()
        mutated[0] = (mutated[0] + 1) % small_graph.num_nodes
        from repro.formats.graph import Graph

        b = GraphContainer.from_graph(Graph(
            vlist=small_graph.vlist, elist=mutated,
            directed=small_graph.directed, name=small_graph.name,
        ))
        assert a.epoch != b.epoch

    def test_undirected_flag(self, small_graph, tmp_path):
        base = str(tmp_path / "sym")
        save_container(small_graph.symmetrized(), base)
        assert not open_container(base).to_graph().directed

    def test_is_container(self, base, tmp_path):
        assert is_container(base)
        assert not is_container(str(tmp_path / "missing"))


class TestMmapOpen:
    def test_mmap_arrays_are_memmaps(self, base):
        c = open_container(base, mmap=True)
        assert isinstance(c.vlist, np.memmap)
        assert isinstance(c.payload, np.memmap)

    def test_mmap_matches_eager(self, base):
        eager = open_container(base, mmap=False)
        mapped = open_container(base, mmap=True)
        assert np.array_equal(eager.elist, mapped.elist)
        assert np.array_equal(eager.vlist, mapped.vlist)

    def test_unverified_open_defers_integrity(self, base):
        c = open_container(base, verify=False)
        c.verify_integrity()
        c.validate()


class TestCorruption:
    def test_payload_bitflip(self, base):
        path = container_paths(base)[1]
        blob = bytearray(open(path, "rb").read())
        blob[3] ^= 1
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptStreamError, match="payload CRC"):
            open_container(base)

    def test_offsets_tamper(self, base):
        path = container_paths(base)[0]
        arr = np.fromfile(path, dtype="<i8")
        arr[1] += 1
        arr.tofile(path)
        with pytest.raises(CorruptMetadataError, match="metadata CRC"):
            open_container(base)

    def test_truncated_payload(self, base):
        path = container_paths(base)[1]
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(CorruptStreamError, match="bytes, expected"):
            open_container(base)

    def test_truncated_offsets(self, base):
        path = container_paths(base)[0]
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(CorruptMetadataError, match="bytes, expected"):
            open_container(base)

    def test_meta_not_json(self, base):
        open(container_paths(base)[2], "w").write("not json{")
        with pytest.raises(CorruptMetadataError, match="not valid JSON"):
            open_container(base)

    def test_meta_missing_key(self, base):
        path = container_paths(base)[2]
        meta = json.load(open(path))
        del meta["payload_crc"]
        json.dump(meta, open(path, "w"))
        with pytest.raises(CorruptMetadataError, match="missing keys"):
            open_container(base)

    def test_meta_bad_magic(self, base):
        path = container_paths(base)[2]
        meta = json.load(open(path))
        meta["magic"] = "something/else"
        json.dump(meta, open(path, "w"))
        with pytest.raises(CorruptMetadataError, match="magic"):
            open_container(base)

    def test_meta_bad_version(self, base):
        path = container_paths(base)[2]
        meta = json.load(open(path))
        meta["version"] = 42
        json.dump(meta, open(path, "w"))
        with pytest.raises(CorruptMetadataError, match="version 42"):
            open_container(base)

    def test_meta_inconsistent_epoch(self, base):
        path = container_paths(base)[2]
        meta = json.load(open(path))
        meta["epoch"] = "0" * 16
        json.dump(meta, open(path, "w"))
        with pytest.raises(CorruptMetadataError, match="epoch"):
            open_container(base)

    def test_direction_flip_detected(self, base):
        path = container_paths(base)[2]
        meta = json.load(open(path))
        meta["directed"] = not meta["directed"]
        json.dump(meta, open(path, "w"))
        with pytest.raises(CorruptMetadataError, match="metadata CRC"):
            open_container(base)

    def test_missing_array_file(self, base):
        import os

        os.remove(container_paths(base)[1])
        with pytest.raises(DecodeError):
            open_container(base)

    def test_all_corruptions_are_typed(self, base):
        # Catch-all posture check: a corrupted container must never
        # escape as a raw OSError/ValueError/json error.
        path = container_paths(base)[2]
        meta = json.load(open(path))
        meta["num_nodes"] = -5
        json.dump(meta, open(path, "w"))
        with pytest.raises(DecodeError):
            open_container(base)


class TestStructuralValidation:
    """Malformed arrays under matching CRC stamps: only ``validate()``
    can catch them, so the structural checks are what must fire."""

    @staticmethod
    def _save_raw(tmp_path, vlist, elist) -> str:
        # The real writer stamps CRCs over whatever arrays it is given,
        # so a graph-shaped namespace yields a well-stamped bad container.
        base = str(tmp_path / "raw")
        save_container(SimpleNamespace(
            vlist=np.asarray(vlist, dtype=np.int64),
            elist=np.asarray(elist, dtype=np.int64),
            directed=True, name="raw",
        ), base)
        open_container(base, verify=False).verify_integrity()
        return base

    def test_non_monotone_offsets(self, tmp_path):
        base = self._save_raw(tmp_path, [0, 3, 2, 4], [1, 2, 0, 3])
        with pytest.raises(CorruptMetadataError, match="non-decreasing"):
            open_container(base)

    def test_terminal_offset_mismatch(self, tmp_path):
        base = self._save_raw(tmp_path, [0, 2, 5], [1, 0, 1])
        with pytest.raises(CorruptMetadataError, match="terminal offset"):
            open_container(base)

    def test_offsets_must_start_at_zero(self, tmp_path):
        base = self._save_raw(tmp_path, [1, 2, 4], [1, 0, 1])
        with pytest.raises(CorruptMetadataError, match="start at 0"):
            open_container(base)

    def test_neighbour_out_of_range(self, tmp_path):
        base = self._save_raw(tmp_path, [0, 2, 3], [1, 9, 0])
        with pytest.raises(CorruptStreamError, match="out of range"):
            open_container(base)

    def test_negative_neighbour(self, tmp_path):
        base = self._save_raw(tmp_path, [0, 2, 3], [1, -1, 0])
        with pytest.raises(CorruptStreamError, match="out of range"):
            open_container(base)
