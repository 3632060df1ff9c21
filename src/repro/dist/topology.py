"""Per-link cost model for the inter-GPU frontier exchange.

A single-pipe model divides the *total* wire bytes of an all-to-all
by one link's bandwidth — as if every transfer serialized through one
pipe no matter how many GPUs participate.  Real
exchanges overlap: each GPU owns one (full-duplex) link, its egress
traffic serializes on that link while its ingress serializes on the
receive side, and only the *shared* host fabric (PCIe switches, host
bridges) couples the flows.  A bulk-synchronous exchange step therefore
finishes when the busiest link drains:

``step = max_g(max(egress_g, ingress_g)) / bw``, lower-bounded by the
contended fabric term ``contention * total_bytes / bw``, plus a fixed
latency per message each GPU must post.

``contention`` interpolates between the two regimes: ``0`` is a perfect
per-link switch (NVLink-style point-to-point), ``1`` reproduces the old
single-pipe model (every byte crosses one shared bus — the workstation
PCIe tree the paper's Titan Xp lives on is closer to this end).

Two-tier topologies add a second, slower fabric: ``gpus_per_node``
groups the GPUs into nodes whose members talk over the fast intra-node
links, while traffic between nodes crosses the inter-node fabric
(``inter_bandwidth`` / ``inter_contention`` / ``inter_latency_s``).
This is the paper's PCIe-vs-HBM bandwidth cliff replayed one level up —
the crossing where frontier compression pays again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.gpusim.device import DeviceSpec

__all__ = [
    "DEFAULT_PEER_BANDWIDTH",
    "DEFAULT_INTER_BANDWIDTH",
    "TIERS",
    "LinkTopology",
    "build_topology",
    "tier_record",
]

#: PCIe peer-to-peer bandwidth between GPUs (no NVLink on a Titan Xp
#: class workstation; both directions share the host links).
DEFAULT_PEER_BANDWIDTH = 10e9

#: Inter-node fabric bandwidth (network-class: ~10x slower than the
#: intra-node PCIe peer links).
DEFAULT_INTER_BANDWIDTH = 1e9

#: Fixed cost of posting one peer-to-peer message (driver + DMA setup).
DEFAULT_MESSAGE_LATENCY_S = 5e-6

#: Link tiers a message can cross.
TIERS = ("intra", "inter")


@dataclass(frozen=True)
class LinkTopology:
    """Inter-GPU interconnect: one full-duplex link per GPU.

    Parameters
    ----------
    num_gpus:
        Devices on the fabric.
    link_bandwidth:
        Bytes/s each GPU's own link sustains in one direction
        (the intra-node tier on a two-tier topology).
    contention:
        Fraction of the exchange's *total* bytes that serialize on the
        shared fabric (0 = independent links, 1 = one shared pipe).
    message_latency_s:
        Fixed cost per message a GPU posts in one step.
    gpus_per_node:
        Group size of the fast tier.  ``None`` (default) means every
        GPU shares one node — a flat single-tier fabric.  Must divide
        ``num_gpus``.
    inter_bandwidth / inter_contention / inter_latency_s:
        The slow tier's parameters; each falls back to its intra-node
        counterpart when ``None``.  Ignored unless ``gpus_per_node``
        makes the topology multi-node.
    """

    num_gpus: int
    link_bandwidth: float = DEFAULT_PEER_BANDWIDTH
    contention: float = 0.5
    message_latency_s: float = DEFAULT_MESSAGE_LATENCY_S
    gpus_per_node: int | None = None
    inter_bandwidth: float | None = None
    inter_contention: float | None = None
    inter_latency_s: float | None = None

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError(f"need at least one GPU, got {self.num_gpus}")
        if self.link_bandwidth <= 0:
            raise ValueError(
                f"link bandwidth must be positive, got {self.link_bandwidth}"
            )
        if not 0.0 <= self.contention <= 1.0:
            raise ValueError(
                f"contention must be in [0, 1], got {self.contention}"
            )
        if self.message_latency_s < 0:
            raise ValueError("message latency must be >= 0")
        if self.gpus_per_node is not None:
            if not 1 <= self.gpus_per_node <= self.num_gpus:
                raise ValueError(
                    f"gpus_per_node must be in [1, {self.num_gpus}], "
                    f"got {self.gpus_per_node}"
                )
            if self.num_gpus % self.gpus_per_node:
                raise ValueError(
                    f"gpus_per_node {self.gpus_per_node} does not divide "
                    f"{self.num_gpus} GPUs into whole nodes"
                )
        if self.inter_bandwidth is not None and self.inter_bandwidth <= 0:
            raise ValueError(
                f"inter bandwidth must be positive, got {self.inter_bandwidth}"
            )
        if self.inter_contention is not None and not (
            0.0 <= self.inter_contention <= 1.0
        ):
            raise ValueError(
                f"inter contention must be in [0, 1], "
                f"got {self.inter_contention}"
            )
        if self.inter_latency_s is not None and self.inter_latency_s < 0:
            raise ValueError("inter latency must be >= 0")

    @classmethod
    def for_device(
        cls,
        device: DeviceSpec,
        num_gpus: int,
        link_bandwidth: float = DEFAULT_PEER_BANDWIDTH,
        contention: float = 0.5,
    ) -> "LinkTopology":
        """Topology matched to a (possibly scaled) device.

        The message latency follows the device's kernel launch overhead
        so miniature-scale simulations keep the paper's ratio of fixed
        cost to bandwidth-bound time (see ``DeviceSpec.scaled``).
        """
        return cls(
            num_gpus=num_gpus,
            link_bandwidth=link_bandwidth,
            contention=contention,
            message_latency_s=device.launch_overhead_s,
        )

    @classmethod
    def two_tier(
        cls,
        num_nodes: int,
        gpus_per_node: int,
        link_bandwidth: float = DEFAULT_PEER_BANDWIDTH,
        inter_bandwidth: float = DEFAULT_INTER_BANDWIDTH,
        contention: float = 0.5,
        inter_contention: float | None = None,
        message_latency_s: float = DEFAULT_MESSAGE_LATENCY_S,
        inter_latency_s: float | None = None,
    ) -> "LinkTopology":
        """``num_nodes`` nodes of ``gpus_per_node`` GPUs each.

        GPU ``g`` lives on node ``g // gpus_per_node``; messages inside
        a node use the intra parameters, messages between nodes the
        (usually slower) inter parameters.
        """
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        return cls(
            num_gpus=num_nodes * gpus_per_node,
            link_bandwidth=link_bandwidth,
            contention=contention,
            message_latency_s=message_latency_s,
            gpus_per_node=gpus_per_node,
            inter_bandwidth=inter_bandwidth,
            inter_contention=inter_contention,
            inter_latency_s=inter_latency_s,
        )

    # -- node structure ---------------------------------------------------

    @property
    def node_size(self) -> int:
        """GPUs per node (``num_gpus`` on a single-tier topology)."""
        return self.gpus_per_node or self.num_gpus

    @property
    def num_nodes(self) -> int:
        """Number of nodes the GPUs are grouped into."""
        return self.num_gpus // self.node_size

    def node_of(self, gpu: int) -> int:
        """Node index a GPU belongs to."""
        return gpu // self.node_size

    def tier(self, src: int, dst: int) -> str:
        """``"intra"`` or ``"inter"`` for a ``src -> dst`` message."""
        return "intra" if self.node_of(src) == self.node_of(dst) else "inter"

    def tier_params(self, tier: str) -> tuple[float, float, float]:
        """``(bandwidth, contention, latency)`` of one tier; the inter
        tier falls back to the intra values field by field."""
        if tier == "intra":
            return self.link_bandwidth, self.contention, self.message_latency_s
        if tier == "inter":
            return (
                self.inter_bandwidth
                if self.inter_bandwidth is not None
                else self.link_bandwidth,
                self.inter_contention
                if self.inter_contention is not None
                else self.contention,
                self.inter_latency_s
                if self.inter_latency_s is not None
                else self.message_latency_s,
            )
        raise ValueError(f"unknown tier {tier!r}; pick from {TIERS}")

    def scaled_bandwidth(self, factor: float) -> "LinkTopology":
        """Same fabric with every tier's bandwidth multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return replace(
            self,
            link_bandwidth=self.link_bandwidth * factor,
            inter_bandwidth=(
                self.inter_bandwidth * factor
                if self.inter_bandwidth is not None
                else None
            ),
        )

    def tier_seconds(self, tier: str, row: dict) -> tuple[float, float]:
        """``(transfer, latency)`` seconds of one tier of an exchange step.

        ``row`` is that tier's step record (:func:`tier_record`): the
        busiest link's bytes, the tier's total bytes and the messages
        its busiest poster sent.  The busiest link serializes, lower-
        bounded by the contended share of the total; each posted message
        adds the tier latency unless the tier moved nothing.  This is
        the one place a step is priced: the exchange, the replays and
        the post-level syncs all call it.
        """
        if self.num_gpus == 1:
            return 0.0, 0.0
        bandwidth, contention, latency_s = self.tier_params(tier)
        transfer = max(
            row["link_bytes"] / bandwidth,
            contention * row["total_bytes"] / bandwidth,
        )
        if transfer == 0.0:
            return 0.0, 0.0
        return transfer, row["messages"] * latency_s

    def step_seconds(self, record: dict) -> float:
        """Duration of one step record: its tiers drain independently,
        so the step ends when the slowest one does."""
        seconds = 0.0
        for tier, row in record.items():
            transfer, latency = self.tier_seconds(tier, row)
            seconds = max(seconds, transfer + latency)
        return seconds


def tier_record(
    egress: np.ndarray, ingress: np.ndarray, posted: np.ndarray
) -> dict:
    """One tier's step record from per-GPU egress and ingress bytes and
    posted message counts: the inputs :meth:`LinkTopology.tier_seconds`
    prices."""
    return {
        "link_bytes": float(np.maximum(egress, ingress).max()),
        "total_bytes": float(egress.sum()),
        "messages": int(posted.max()),
    }


def build_topology(
    nodes: int,
    gpus: int,
    device: DeviceSpec,
    link_gbs: float,
    inter_gbs: float,
    contention: float,
) -> LinkTopology:
    """The link topology of a ``nodes`` x ``gpus`` cluster layout.

    Two-tier when ``nodes > 1`` (the paper's multi-node shape), flat
    peer links otherwise; bandwidths are in GB/s and the message
    latency tracks the device's launch overhead.  The one layout
    builder shared by ``repro dist`` and ``repro whatif``.
    """
    if nodes > 1:
        return LinkTopology.two_tier(
            num_nodes=nodes,
            gpus_per_node=gpus // nodes,
            link_bandwidth=link_gbs * 1e9,
            inter_bandwidth=inter_gbs * 1e9,
            contention=contention,
            message_latency_s=device.launch_overhead_s,
        )
    return LinkTopology.for_device(
        device, gpus, link_bandwidth=link_gbs * 1e9, contention=contention
    )
