"""Uniform per-format adapters for the fault/differential harness.

Each adapter exposes the same six operations over one compressed
format: ``encode``, ``decode_all`` (flat neighbour stream in CSR
order), ``payload`` / ``with_payload``, ``metadata_arrays`` /
``with_metadata``, and ``verify_integrity``.

Rebuild operations of the compressed formats construct **fresh**
containers field by field rather than using :func:`dataclasses.replace`
— ``EFGraph`` memoises its degree array in an init field, and a
replace-based rebuild would smuggle the stale cache past a mutated
``vlist``.

Mutated arrays are always writable copies; the originals stay frozen
exactly as the encoders left them.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from repro.formats.graph import Graph

__all__ = ["FormatAdapter", "FORMAT_ADAPTERS", "get_adapter"]


class FormatAdapter(abc.ABC):
    """One format's view for the fault-injection / differential harness."""

    #: Short format key ("efg", "pef", "cgr", "ligra", "bv",
    #: "container").
    name: str = ""

    @abc.abstractmethod
    def encode(self, graph: Graph):
        """Compress ``graph`` into this format's container."""

    @abc.abstractmethod
    def decode_all(self, container) -> np.ndarray:
        """Decode every list; flat int64 stream in CSR order."""

    @abc.abstractmethod
    def payload(self, container) -> np.ndarray:
        """The uint8 payload array faults flip bits in."""

    @abc.abstractmethod
    def with_payload(self, container, payload: np.ndarray):
        """Fresh container with ``payload`` substituted."""

    @abc.abstractmethod
    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        """The integer metadata arrays faults perturb, keyed by field."""

    @abc.abstractmethod
    def with_metadata(self, container, field: str, arr: np.ndarray):
        """Fresh container with metadata ``field`` replaced by ``arr``."""

    def verify_integrity(self, container) -> None:
        """Run the container's CRC check (all containers grew one)."""
        container.verify_integrity()


def _decode_by_vertex(container) -> np.ndarray:
    """Concatenate per-vertex ``neighbours`` into one flat stream."""
    rows = [container.neighbours(v) for v in range(container.num_nodes)]
    if not rows:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(rows) if len(rows) > 1 else rows[0]


class EFGAdapter(FormatAdapter):
    """Elias-Fano Graph (the paper's format); vectorized batch decode."""

    name = "efg"

    def encode(self, graph: Graph):
        from repro.core.efg import efg_encode

        return efg_encode(graph)

    def decode_all(self, container) -> np.ndarray:
        from repro.core.efg import decode_lists

        values, _seg = decode_lists(
            container, np.arange(container.num_nodes, dtype=np.int64)
        )
        return values

    def payload(self, container) -> np.ndarray:
        return container.data

    def with_payload(self, container, payload: np.ndarray):
        return self._rebuild(container, data=payload)

    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        return {
            "vlist": container.vlist,
            "num_lower_bits": container.num_lower_bits,
            "offsets": container.offsets,
        }

    def with_metadata(self, container, field: str, arr: np.ndarray):
        return self._rebuild(container, **{field: arr})

    @staticmethod
    def _rebuild(container, **overrides):
        from repro.core.efg import EFGraph

        fields = {
            "vlist": container.vlist,
            "num_lower_bits": container.num_lower_bits,
            "offsets": container.offsets,
            "data": container.data,
        }
        fields.update(overrides)
        return EFGraph(
            quantum=container.quantum,
            name=container.name,
            payload_crc=container.payload_crc,
            meta_crc=container.meta_crc,
            **fields,
        )


class PEFAdapter(FormatAdapter):
    """Partitioned Elias-Fano (the Sec. IX storage extension)."""

    name = "pef"

    def encode(self, graph: Graph):
        from repro.core.pefgraph import pefg_encode

        return pefg_encode(graph)

    def decode_all(self, container) -> np.ndarray:
        return _decode_by_vertex(container)

    def payload(self, container) -> np.ndarray:
        return container.data

    def with_payload(self, container, payload: np.ndarray):
        return self._rebuild(container, data=payload)

    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        return {"vlist": container.vlist, "offsets": container.offsets}

    def with_metadata(self, container, field: str, arr: np.ndarray):
        return self._rebuild(container, **{field: arr})

    @staticmethod
    def _rebuild(container, **overrides):
        from repro.core.pefgraph import PEFGraph

        fields = {
            "vlist": container.vlist,
            "offsets": container.offsets,
            "data": container.data,
        }
        fields.update(overrides)
        return PEFGraph(
            name=container.name,
            payload_crc=container.payload_crc,
            meta_crc=container.meta_crc,
            **fields,
        )


class CGRAdapter(FormatAdapter):
    """CGR interval/residual varint chains (SIGMOD'19 comparator)."""

    name = "cgr"

    def encode(self, graph: Graph):
        from repro.formats.cgr import cgr_encode

        return cgr_encode(graph)

    def decode_all(self, container) -> np.ndarray:
        return _decode_by_vertex(container)

    def payload(self, container) -> np.ndarray:
        return container.data

    def with_payload(self, container, payload: np.ndarray):
        return self._rebuild(container, data=payload)

    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        return {"offsets": container.offsets, "steps": container.steps}

    def with_metadata(self, container, field: str, arr: np.ndarray):
        return self._rebuild(container, **{field: arr})

    @staticmethod
    def _rebuild(container, **overrides):
        from repro.formats.cgr import CGRGraph

        fields = {
            "offsets": container.offsets,
            "data": container.data,
            "steps": container.steps,
        }
        fields.update(overrides)
        return CGRGraph(
            graph=container.graph,
            payload_crc=container.payload_crc,
            meta_crc=container.meta_crc,
            **fields,
        )


class LigraAdapter(FormatAdapter):
    """Ligra+ RLE byte codes (DCC'15 CPU comparator)."""

    name = "ligra"

    def encode(self, graph: Graph):
        from repro.formats.ligra_plus import ligra_encode

        return ligra_encode(graph)

    def decode_all(self, container) -> np.ndarray:
        return _decode_by_vertex(container)

    def payload(self, container) -> np.ndarray:
        return container.data

    def with_payload(self, container, payload: np.ndarray):
        return self._rebuild(container, data=payload)

    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        return {"offsets": container.offsets}

    def with_metadata(self, container, field: str, arr: np.ndarray):
        return self._rebuild(container, **{field: arr})

    @staticmethod
    def _rebuild(container, **overrides):
        from repro.formats.ligra_plus import LigraPlusGraph

        fields = {"offsets": container.offsets, "data": container.data}
        fields.update(overrides)
        return LigraPlusGraph(
            graph=container.graph,
            payload_crc=container.payload_crc,
            meta_crc=container.meta_crc,
            **fields,
        )


class BVAdapter(FormatAdapter):
    """BV / WebGraph reference compression (ratio comparator)."""

    name = "bv"

    def encode(self, graph: Graph):
        from repro.formats.bv import bv_encode

        return bv_encode(graph)

    def decode_all(self, container) -> np.ndarray:
        return _decode_by_vertex(container)

    def payload(self, container) -> np.ndarray:
        return container.data

    def with_payload(self, container, payload: np.ndarray):
        return self._rebuild(container, data=payload)

    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        return {"offsets": container.offsets}

    def with_metadata(self, container, field: str, arr: np.ndarray):
        return self._rebuild(container, **{field: arr})

    @staticmethod
    def _rebuild(container, **overrides):
        from repro.formats.bv import BVGraph

        fields = {"offsets": container.offsets, "data": container.data}
        fields.update(overrides)
        return BVGraph(
            graph=container.graph,
            window=container.window,
            max_ref_chain=container.max_ref_chain,
            payload_crc=container.payload_crc,
            meta_crc=container.meta_crc,
            **fields,
        )


class ContainerAdapter(FormatAdapter):
    """The on-disk CSR container of :mod:`repro.serve.container`.

    Fuzzes :class:`~repro.serve.container.GraphContainer` itself (it
    caches nothing, so ``dataclasses.replace`` is a safe rebuild).
    ``decode_all`` is the structural load path (word parse + CSR
    validation, no CRCs) that :func:`~repro.serve.container.open_container`
    runs after its integrity check; in-range payload perturbations
    therefore decode "successfully" in the structural pass and are
    caught by the primary CRC pass — the loader's layered posture.
    """

    name = "container"

    def encode(self, graph: Graph):
        from repro.serve.container import GraphContainer

        return GraphContainer.from_graph(graph)

    def decode_all(self, container) -> np.ndarray:
        container.validate()
        return container.elist

    def payload(self, container) -> np.ndarray:
        return container.payload

    def with_payload(self, container, payload: np.ndarray):
        return dataclasses.replace(container, payload=payload)

    def metadata_arrays(self, container) -> dict[str, np.ndarray]:
        return {"vlist": container.vlist}

    def with_metadata(self, container, field: str, arr: np.ndarray):
        return dataclasses.replace(container, **{field: arr})


#: All fuzzable formats, in campaign order.
FORMAT_ADAPTERS: dict[str, FormatAdapter] = {
    a.name: a
    for a in (
        EFGAdapter(),
        PEFAdapter(),
        CGRAdapter(),
        LigraAdapter(),
        BVAdapter(),
        ContainerAdapter(),
    )
}


def get_adapter(name: str) -> FormatAdapter:
    """Look up one adapter by format key."""
    try:
        return FORMAT_ADAPTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown format {name!r}; pick from {sorted(FORMAT_ADAPTERS)}"
        ) from None
