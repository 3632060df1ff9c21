"""Tests for edge-list text IO and the on-disk CSR file graphs are
converted into (the container of :mod:`repro.serve.container`)."""

import json
import warnings

import numpy as np
import pytest

from repro.core.errors import (
    CorruptMetadataError,
    CorruptStreamError,
    DecodeError,
)
from repro.formats.io import read_edge_list
from repro.serve.container import (
    container_paths,
    open_container,
    save_container,
)


def _write_edge_list(graph, path) -> None:
    """A whitespace-separated ``src dst`` text edge list."""
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    np.savetxt(path, np.column_stack([src, graph.elist]), fmt="%d")


class TestEdgeListText:
    def test_roundtrip(self, small_graph, tmp_path):
        path = tmp_path / "edges.txt"
        _write_edge_list(small_graph, path)
        loaded = read_edge_list(path, name="reload")
        assert np.array_equal(loaded.vlist, small_graph.vlist)
        assert np.array_equal(loaded.elist, small_graph.elist)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_empty_file_rejection_is_warning_free(self, tmp_path):
        # np.loadtxt warns on empty input; the emptiness check must run
        # first so the rejection is a clean ValueError with no warning.
        path = tmp_path / "empty.txt"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                read_edge_list(path)

    def test_comment_only_file_rejected_warning_free(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# a comment\n\n   \n  # another\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                read_edge_list(path)


def _edit_meta(base, **overrides):
    """Rewrite a container's ``.meta`` with fields replaced (``None`` drops)."""
    path = container_paths(base)[2]
    with open(path) as fh:
        meta = json.load(fh)
    for key, value in overrides.items():
        if value is None:
            meta.pop(key, None)
        else:
            meta[key] = value
    with open(path, "w") as fh:
        json.dump(meta, fh)


# The ``Npz`` class names date from when graphs were also stored as npz
# archives; the container is now the one binary CSR file, and these cases
# pin its contract from the offline-conversion side.
class TestNpzRoundtrip:
    def test_roundtrip(self, small_graph, tmp_path):
        # The offline conversion path: text edge list -> container -> Graph.
        edges = tmp_path / "edges.txt"
        _write_edge_list(small_graph, edges)
        base = str(tmp_path / "g")
        save_container(read_edge_list(edges, name=small_graph.name), base)
        loaded = open_container(base).to_graph()
        assert np.array_equal(loaded.vlist, small_graph.vlist)
        assert np.array_equal(loaded.elist, small_graph.elist)
        assert loaded.directed == small_graph.directed
        assert loaded.name == small_graph.name


class TestNpzIntegrity:
    @pytest.fixture
    def saved(self, small_graph, tmp_path):
        base = str(tmp_path / "g")
        save_container(small_graph, base)
        return base

    def test_payload_tamper_detected(self, saved):
        # Change one neighbour id (not just a byte): still a valid id
        # range-wise, so only the payload CRC can catch it.
        path = container_paths(saved)[1]
        elist = np.fromfile(path, dtype="<i8")
        elist[0] ^= 1
        elist.tofile(path)
        with pytest.raises(CorruptStreamError, match="payload CRC"):
            open_container(saved)

    def test_metadata_tamper_detected(self, small_graph, saved):
        # A monotone-preserving offsets edit decodes structurally fine;
        # only the meta CRC can catch it.
        vlist = small_graph.vlist.copy()
        idx = len(vlist) // 2
        if vlist[idx] + 1 <= vlist[idx + 1]:
            vlist[idx] += 1
        else:
            vlist[idx] -= 1
        vlist.astype("<i8").tofile(container_paths(saved)[0])
        with pytest.raises(CorruptMetadataError, match="metadata CRC"):
            open_container(saved)

    def test_version_mismatch_is_typed(self, saved):
        _edit_meta(saved, version=99)
        with pytest.raises(CorruptMetadataError, match="version 99"):
            open_container(saved)

    def test_missing_key_is_typed(self, saved):
        _edit_meta(saved, num_edges=None)
        with pytest.raises(CorruptMetadataError, match="missing keys"):
            open_container(saved)

    def test_all_failures_are_decode_errors(self, saved):
        # A tampered file must never escape as KeyError/ValueError.
        _edit_meta(saved, version=None)
        with pytest.raises(DecodeError):
            open_container(saved)
