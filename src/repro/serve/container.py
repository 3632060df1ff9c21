"""On-disk graph container: encode once, serve many (mmap-backed).

The serving story of the paper (Sec. VIII-F) assumes compression is an
*offline* step: a graph is encoded once and then resident in device
memory for the lifetime of the query service.  The container is the
one on-disk CSR form, and it is laid out for O(1) opens rather than
for small files (raw, not zlib-compressed: 8 B per edge — the paper's
subject is compression in device memory, not archival files):

* ``<base>.offsets`` — the CSR offsets, raw little-endian int64.
* ``<base>.graph``   — the neighbour payload, raw bytes (8 B per id).
* ``<base>.meta``    — canonical JSON: shape, direction, name, and the
  two CRC32 stamps of the PR 4 integrity contract.

Because the array files are raw and uncompressed, :func:`open_container`
memory-maps them read-only: the OS pages neighbour lists in on first
touch and shares the mapping across every service process on the host.
Saving the same graph twice produces byte-identical files (canonical
JSON, fixed field order), so containers can be content-addressed and
diffed in CI.

The **epoch** is the container's identity: a 16-hex-digit digest of the
metadata and payload CRCs.  Two containers with equal epochs hold the
same graph bit-for-bit; the serving layer keys its result cache on it so
a cache entry can never outlive the graph it was computed on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.formats.graph import Graph
from repro.formats.integrity import (
    arrays_crc32,
    check_crcs,
    parse_payload_words,
    validate_csr_arrays,
)

__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "GraphContainer",
    "container_paths",
    "save_container",
    "open_container",
    "is_container",
]

#: Identifies ``.meta`` files as serve containers (format + layout rev).
CONTAINER_MAGIC = "repro.container/1"

#: Bump on breaking layout changes; readers reject unknown versions.
CONTAINER_VERSION = 1

#: ``.meta`` keys every container carries; absence is corruption (the
#: container format never existed without CRC stamps).
_REQUIRED_META = (
    "magic",
    "version",
    "num_nodes",
    "num_edges",
    "directed",
    "name",
    "payload_crc",
    "meta_crc",
    "epoch",
)


@dataclass(frozen=True)
class GraphContainer:
    """An immutable CSR graph in container form (possibly mmap-backed).

    ``payload`` is the raw neighbour bytes — the wire/disk shape — and
    :attr:`elist` is its zero-copy int64 view.  Instances are frozen:
    the epoch contract only holds if nobody mutates a resident graph.
    """

    vlist: np.ndarray
    payload: np.ndarray
    directed: bool
    name: str
    payload_crc: int
    meta_crc: int

    #: Fault surface (see :class:`~repro.core.efg.EFGraph`).
    PAYLOAD_FIELD = "payload"
    METADATA_FIELDS = ("vlist",)

    @property
    def num_nodes(self) -> int:
        return int(self.vlist.shape[0]) - 1

    @property
    def num_edges(self) -> int:
        return int(self.payload.shape[0]) // 8

    @property
    def elist(self) -> np.ndarray:
        """Neighbour ids: zero-copy int64 view of the payload bytes."""
        return parse_payload_words(self.payload, fmt="container")

    @property
    def epoch(self) -> str:
        """Content identity: 16 hex digits over both CRC stamps.

        Equal epochs ⟺ equal graph bytes; the serving layer keys its
        result cache ``(source, epoch)`` so entries cannot survive a
        graph swap.
        """
        return f"{self.meta_crc:08x}{self.payload_crc:08x}"

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphContainer":
        """Build a container image from an in-memory graph (stamps CRCs)."""
        payload = np.frombuffer(
            np.ascontiguousarray(graph.elist, dtype="<i8").tobytes(),
            dtype=np.uint8,
        )
        vlist = np.ascontiguousarray(graph.vlist, dtype="<i8")
        return cls(
            vlist=vlist,
            payload=payload,
            directed=bool(graph.directed),
            name=graph.name,
            payload_crc=arrays_crc32(payload),
            meta_crc=arrays_crc32(
                vlist, int(bool(graph.directed)), CONTAINER_VERSION
            ),
        )

    def verify_integrity(self) -> None:
        """Check both CRC stamps against the current bytes (typed errors)."""
        check_crcs(
            self, "container", self.vlist, int(self.directed), CONTAINER_VERSION
        )

    def validate(self) -> None:
        """Structural validation: offsets monotone, neighbour ids in range."""
        validate_csr_arrays(self.vlist, self.elist, fmt="container")

    def decode_all(self) -> np.ndarray:
        """The structural load path: :meth:`validate`, then :attr:`elist`.

        No CRCs, like :func:`open_container` after its integrity check;
        an in-range payload flip therefore decodes "successfully" here
        and only the CRC pass catches it.
        """
        self.validate()
        return self.elist

    def to_graph(self) -> Graph:
        """Materialise a :class:`Graph` (copies out of any mmap)."""
        return Graph(
            vlist=np.array(self.vlist, dtype=np.int64),
            elist=np.array(self.elist, dtype=np.int64),
            directed=self.directed,
            name=self.name,
        )

    def meta_dict(self) -> dict:
        """The ``.meta`` JSON payload (deterministic field values)."""
        return {
            "magic": CONTAINER_MAGIC,
            "version": CONTAINER_VERSION,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "directed": self.directed,
            "name": self.name,
            "payload_crc": self.payload_crc,
            "meta_crc": self.meta_crc,
            "epoch": self.epoch,
        }


def container_paths(base: str | os.PathLike) -> tuple[str, str, str]:
    """The ``(.offsets, .graph, .meta)`` paths of a container base."""
    base = os.fspath(base)
    return (base + ".offsets", base + ".graph", base + ".meta")


def save_container(graph: Graph, base: str | os.PathLike) -> GraphContainer:
    """Encode ``graph`` into the three container files at ``base``.

    Writing is deterministic: re-saving the same graph yields
    byte-identical files (raw C-order arrays, canonical JSON meta), so
    a container round-trip can be verified with ``cmp`` in CI.
    Returns the in-memory image that was written.
    """
    container = GraphContainer.from_graph(graph)
    offsets_path, graph_path, meta_path = container_paths(base)
    container.vlist.tofile(offsets_path)
    container.payload.tofile(graph_path)
    with open(meta_path, "w") as fh:
        json.dump(container.meta_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return container


def is_container(base: str | os.PathLike) -> bool:
    """True when ``base`` names a saved container (its ``.meta`` exists)."""
    return os.path.exists(container_paths(base)[2])


def _load_meta(meta_path: str) -> dict:
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise CorruptMetadataError(
            f"cannot read container meta: {exc}", fmt="container"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CorruptMetadataError(
            f"container meta is not valid JSON: {exc}", fmt="container"
        ) from exc
    if not isinstance(meta, dict):
        raise CorruptMetadataError(
            "container meta must be a JSON object", fmt="container"
        )
    missing = [k for k in _REQUIRED_META if k not in meta]
    if missing:
        raise CorruptMetadataError(
            f"container meta is missing keys: {', '.join(missing)}",
            fmt="container",
        )
    if meta["magic"] != CONTAINER_MAGIC:
        raise CorruptMetadataError(
            f"not a graph container (magic {meta['magic']!r})",
            fmt="container",
        )
    if int(meta["version"]) != CONTAINER_VERSION:
        raise CorruptMetadataError(
            f"unsupported container version {int(meta['version'])} "
            f"(expected {CONTAINER_VERSION})",
            fmt="container",
        )
    return meta


def open_container(
    base: str | os.PathLike, *, mmap: bool = True, verify: bool = True
) -> GraphContainer:
    """Open a saved container in O(1): map the arrays, parse the meta.

    ``mmap=True`` (the default) memory-maps both array files read-only;
    nothing is decompressed or copied, so a multi-GB graph opens in
    microseconds and pages in lazily.  ``verify=True`` additionally
    re-hashes both CRC stamps and structurally validates the arrays —
    an O(bytes) scan that forces every page once, so services that want
    lazy paging can defer it and call
    :meth:`GraphContainer.verify_integrity` on their own schedule.

    All failure modes raise the typed PR 4 errors:
    :class:`~repro.core.errors.CorruptMetadataError` for meta/offsets
    problems, :class:`~repro.core.errors.CorruptStreamError` for
    payload problems.
    """
    offsets_path, graph_path, meta_path = container_paths(base)
    meta = _load_meta(meta_path)
    num_nodes = int(meta["num_nodes"])
    num_edges = int(meta["num_edges"])
    if num_nodes < 0 or num_edges < 0:
        raise CorruptMetadataError(
            f"negative shape in container meta: num_nodes={num_nodes}, "
            f"num_edges={num_edges}",
            fmt="container",
        )

    want_offsets = 8 * (num_nodes + 1)
    try:
        have_offsets = os.path.getsize(offsets_path)
        have_payload = os.path.getsize(graph_path)
    except OSError as exc:
        raise CorruptMetadataError(
            f"container array file missing: {exc}", fmt="container"
        ) from exc
    if have_offsets != want_offsets:
        raise CorruptMetadataError(
            f"offsets file is {have_offsets} bytes, expected {want_offsets} "
            f"for {num_nodes} vertices",
            fmt="container",
        )
    want_payload = 8 * num_edges
    if have_payload != want_payload:
        raise CorruptStreamError(
            f"payload file is {have_payload} bytes, expected {want_payload} "
            f"for {num_edges} neighbours",
            fmt="container",
        )

    if mmap:
        vlist = np.memmap(offsets_path, dtype="<i8", mode="r")
        payload = np.memmap(graph_path, dtype=np.uint8, mode="r")
    else:
        vlist = np.fromfile(offsets_path, dtype="<i8")
        payload = np.fromfile(graph_path, dtype=np.uint8)

    container = GraphContainer(
        vlist=vlist,
        payload=payload,
        directed=bool(meta["directed"]),
        name=str(meta["name"]),
        payload_crc=int(meta["payload_crc"]),
        meta_crc=int(meta["meta_crc"]),
    )
    if container.epoch != str(meta["epoch"]):
        # The epoch is derived from the CRCs; a mismatch means the meta
        # file itself is internally inconsistent (hand-edited).
        raise CorruptMetadataError(
            f"container epoch {meta['epoch']!r} does not match its CRC "
            f"stamps ({container.epoch})",
            fmt="container",
        )
    if verify:
        container.verify_integrity()
        container.validate()
    return container
