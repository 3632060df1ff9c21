"""The frontier exchange: route bucketed ids to their owner GPUs.

One bulk-synchronous exchange takes each GPU's per-owner buckets of
discovered vertices (sorted, deduplicated — the pack kernel's job) and
delivers to every GPU the union of what the others found in its range.
Three schedules:

* ``flat`` — the textbook single-step all-to-all: every GPU posts one
  message per peer; per-link time is the busiest link's serialization
  (see :class:`repro.dist.topology.LinkTopology`).
* ``butterfly`` — the log-step hypercube schedule of ButterFly BFS
  (PAPERS.md): in round ``k`` each GPU exchanges one message with the
  partner whose id differs in bit ``k``, forwarding everything whose
  final owner lives on the partner's side of that bit.  Messages per
  GPU drop from P-1 to ~log2 P (the latency win) while forwarded items
  are re-aggregated and deduplicated at every hop (the bandwidth win on
  dense frontiers, paid for by items travelling up to log2 P links).
  Non-power-of-two counts fold the trailing GPUs onto hypercube
  proxies first and unfold after the rounds (one extra step each way).
* ``hierarchical`` — the two-tier schedule for node-grouped topologies:
  buckets bound for a remote node are first gathered (and
  ``_combine``-deduplicated) on one intra-node leader per destination
  node, then a single message per ordered node pair crosses the slow
  inter-node fabric, and the receiving gateway scatters by owner over
  its fast local links.  The slow tier carries at most
  ``nodes * (nodes - 1)`` messages whose duplicate ids across a node's
  G senders have already been folded — the up-to-G× message shrink
  that makes inter-node compression pay.

Optionally each id carries a fixed-width value (SSSP distances,
PageRank partial sums).  Values ride uncompressed — the id stream is
what the codecs compress, mirroring the paper's "weights are not
compressed" stance — and duplicates met along the way are folded with
the caller's combiner (min for distances, sum for rank mass), which is
exactly the aggregation that makes the multi-hop schedules competitive.

Every message is attributed to the link tier it crosses
(:data:`repro.dist.topology.TIERS`); per-tier byte totals in
:class:`ExchangeStats` sum exactly to ``wire_bytes``, the invariant
``repro.dist.report.verify_dist_attribution`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dist.partition import VertexPartition
from repro.dist.topology import TIERS, LinkTopology
from repro.dist.wire import (
    MESSAGE_HEADER_BYTES,
    AutoCodec,
    WireCodec,
    get_codec,
)
from repro.primitives.unique import fold_duplicates, sorted_unique

__all__ = ["SCHEDULES", "ExchangeStats", "exchange"]

#: Exchange schedules the drivers accept.
SCHEDULES = ("flat", "butterfly", "hierarchical")

#: Concrete codecs trial-sized per message when ``record_trials`` is on
#: (the what-if engine's codec-swap inputs; ``auto`` is a selector).
_TRIAL_CODECS = tuple(
    get_codec(name) for name in ("raw", "raw64", "bitmap", "varint", "ef")
)


def _tier_zeros() -> dict[str, int]:
    return {tier: 0 for tier in TIERS}


def _tier_fzeros() -> dict[str, float]:
    return {tier: 0.0 for tier in TIERS}


@dataclass
class ExchangeStats:
    """Accounting for one exchange (one level's all-to-all)."""

    #: Total bytes that crossed inter-GPU links (payload + headers).
    wire_bytes: int = 0
    #: Encoded id bytes only.
    id_bytes: int = 0
    #: Uncompressed value bytes only.
    value_bytes: int = 0
    #: Fixed message-envelope bytes only.
    header_bytes: int = 0
    #: Messages posted across all GPUs and rounds.
    messages: int = 0
    #: Ids handed to codecs on the send side (dedup already applied).
    sent_ids: int = 0
    #: Ids decoded on the receive side (== sent for a correct codec).
    received_ids: int = 0
    #: Simulated link time of the whole exchange.
    seconds: float = 0.0
    #: Serialization share of :attr:`seconds` (bytes over links).
    transfer_seconds: float = 0.0
    #: Fixed per-message share of :attr:`seconds`.
    latency_seconds: float = 0.0
    #: Schedule rounds (1 for flat, ~log2 P for butterfly, up to 3 for
    #: hierarchical).
    rounds: int = 0
    #: Messages per concrete codec actually used (auto resolves here).
    codec_messages: dict[str, int] = field(default_factory=dict)
    #: Encode instructions per concrete codec (sender-side ALU work).
    codec_instructions: dict[str, float] = field(default_factory=dict)
    #: Wire bytes per link tier; sums exactly to :attr:`wire_bytes`.
    tier_bytes: dict[str, int] = field(default_factory=_tier_zeros)
    #: Messages per link tier; sums exactly to :attr:`messages`.
    tier_messages: dict[str, int] = field(default_factory=_tier_zeros)
    #: Per-tier transfer seconds (each tier drains independently).
    tier_transfer_seconds: dict[str, float] = field(
        default_factory=_tier_fzeros
    )
    #: Per-tier latency seconds.
    tier_latency_seconds: dict[str, float] = field(
        default_factory=_tier_fzeros
    )
    #: Per-GPU wire ids encoded / decoded (pack/unpack kernel inputs).
    sent_ids_per_gpu: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    received_ids_per_gpu: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: One entry per bulk-synchronous step, in pricing order: per-tier
    #: ``{"link_bytes", "total_bytes", "messages"}`` — exactly the
    #: inputs :meth:`repro.dist.topology.LinkTopology.step_breakdown`
    #: consumed, so the what-if engine can re-price the exchange under
    #: a different topology bit-exactly.
    step_records: list[dict] = field(default_factory=list)
    #: Encoded id bytes per tier (compressible share of ``tier_bytes``).
    tier_id_bytes: dict[str, int] = field(default_factory=_tier_zeros)
    #: Uncompressed value bytes per tier.
    tier_value_bytes: dict[str, int] = field(default_factory=_tier_zeros)
    #: Envelope bytes per tier.
    tier_header_bytes: dict[str, int] = field(default_factory=_tier_zeros)
    #: When True, every message is additionally trial-sized through all
    #: concrete codecs (what-if codec-swap inputs).
    record_trials: bool = False
    #: Trial payload bytes per codec per tier (``record_trials`` only).
    trial_id_bytes: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Codecs that could not represent some message of this exchange.
    trial_invalid: set[str] = field(default_factory=set)

    def add_message(
        self,
        codec_name: str,
        id_nbytes: int,
        value_nbytes: int,
        tier: str = "intra",
    ) -> int:
        """Record one posted message; returns its total wire bytes."""
        total = id_nbytes + value_nbytes + MESSAGE_HEADER_BYTES
        self.wire_bytes += total
        self.id_bytes += id_nbytes
        self.value_bytes += value_nbytes
        self.header_bytes += MESSAGE_HEADER_BYTES
        self.messages += 1
        self.tier_bytes[tier] += total
        self.tier_messages[tier] += 1
        self.tier_id_bytes[tier] += id_nbytes
        self.tier_value_bytes[tier] += value_nbytes
        self.tier_header_bytes[tier] += MESSAGE_HEADER_BYTES
        self.codec_messages[codec_name] = (
            self.codec_messages.get(codec_name, 0) + 1
        )
        return total


class _Step:
    """Per-tier byte/message accumulator for one bulk-synchronous step.

    Each tier is an independent fabric, so a step in which both tiers
    carry traffic finishes when the slower one drains — the step time
    is the ``max`` over tiers of ``transfer + latency``, while the
    per-tier breakdowns accumulate into the stats for attribution.
    """

    def __init__(self, topology: LinkTopology) -> None:
        self.topology = topology
        n = topology.num_gpus
        self.egress = {t: np.zeros(n, dtype=np.float64) for t in TIERS}
        self.ingress = {t: np.zeros(n, dtype=np.float64) for t in TIERS}
        self.posted = {t: np.zeros(n, dtype=np.int64) for t in TIERS}

    def tier_of(self, src: int, dst: int) -> str:
        return self.topology.tier(src, dst)

    def add(self, src: int, dst: int, nbytes: int) -> None:
        tier = self.tier_of(src, dst)
        self.egress[tier][src] += nbytes
        self.ingress[tier][dst] += nbytes
        self.posted[tier][src] += 1

    def finish(self, stats: ExchangeStats) -> float:
        """Price the step; fold the breakdown into ``stats``.

        Returns the step's wall-clock seconds and adds the binding
        tier's transfer/latency split to the aggregate
        ``transfer_seconds`` / ``latency_seconds`` (so those two keep
        summing to ``stats.seconds``).
        """
        step_seconds = 0.0
        binding = (0.0, 0.0)
        record: dict[str, dict[str, float]] = {}
        for tier in TIERS:
            if self.topology.num_gpus == 1:
                continue
            messages = int(self.posted[tier].max())
            # The exact inputs step_breakdown consumes — the what-if
            # replay re-prices from these and must match bit-for-bit.
            record[tier] = {
                "link_bytes": float(
                    np.maximum(self.egress[tier], self.ingress[tier]).max()
                ),
                "total_bytes": float(self.egress[tier].sum()),
                "messages": messages,
            }
            transfer, latency = self.topology.step_breakdown(
                self.egress[tier], self.ingress[tier], messages, tier=tier
            )
            stats.tier_transfer_seconds[tier] += transfer
            stats.tier_latency_seconds[tier] += latency
            if transfer + latency > step_seconds:
                step_seconds = transfer + latency
                binding = (transfer, latency)
        stats.step_records.append(record)
        stats.transfer_seconds += binding[0]
        stats.latency_seconds += binding[1]
        stats.seconds += step_seconds
        return step_seconds


def _combine(
    ids_a: np.ndarray,
    vals_a: np.ndarray | None,
    ids_b: np.ndarray,
    vals_b: np.ndarray | None,
    combine: str | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Merge two sorted-unique id sets, folding duplicate values."""
    if ids_a.size == 0:
        return ids_b, vals_b
    if ids_b.size == 0:
        return ids_a, vals_a
    ids = np.concatenate([ids_a, ids_b])
    if vals_a is None:
        return sorted_unique(ids), None
    return fold_duplicates(ids, np.concatenate([vals_a, vals_b]), combine)


def _encode_message(
    codec: WireCodec,
    ids: np.ndarray,
    lo: int,
    hi: int,
    num_values: int,
    value_width: int,
    stats: ExchangeStats,
    tier: str = "intra",
) -> tuple[np.ndarray, int]:
    """Round-trip one message through the codec; returns (ids, bytes)."""
    if isinstance(codec, AutoCodec):
        concrete, payload = codec.trial(ids, lo, hi)
    else:
        concrete = codec
        payload = concrete.encode(ids, lo, hi)
    decoded = concrete.decode(payload, lo, hi)
    total = stats.add_message(
        concrete.name, int(payload.shape[0]), value_width * num_values,
        tier=tier,
    )
    stats.codec_instructions[concrete.name] = (
        stats.codec_instructions.get(concrete.name, 0.0)
        + concrete.encode_instr_per_id * int(ids.shape[0])
    )
    stats.sent_ids += int(ids.shape[0])
    stats.received_ids += int(decoded.shape[0])
    if stats.record_trials:
        for cand in _TRIAL_CODECS:
            if cand.name in stats.trial_invalid:
                continue
            try:
                size = cand.encoded_nbytes(ids, lo, hi)
            except ValueError:
                # Representation limit (raw past 2^31): the codec is
                # not a valid swap target for this exchange at all.
                stats.trial_invalid.add(cand.name)
                stats.trial_id_bytes.pop(cand.name, None)
                continue
            tiers = stats.trial_id_bytes.setdefault(
                cand.name, _tier_zeros()
            )
            tiers[tier] += size
    return decoded, total


def exchange(
    outgoing: list[list[np.ndarray]],
    partition: VertexPartition,
    topology: LinkTopology,
    codec: WireCodec,
    schedule: str = "flat",
    values: list[list[np.ndarray]] | None = None,
    combine: str | None = None,
    value_width: int = 4,
    record_trials: bool = False,
) -> tuple[list[np.ndarray], list[np.ndarray] | None, ExchangeStats]:
    """Deliver every bucket to its owner; returns per-GPU incoming sets.

    ``outgoing[g][h]`` holds the sorted unique ids GPU ``g`` discovered
    for owner ``h`` (``outgoing[g][g]`` never touches a link).  With
    ``values``, each id carries one ``value_width``-byte value and
    duplicates are folded with ``combine`` (``"min"`` or ``"sum"``).
    ``incoming[h]`` is the sorted unique union delivered to ``h``.
    ``record_trials`` additionally sizes every message through every
    concrete codec (what-if codec-swap inputs; no priced effect).
    """
    num_gpus = partition.num_gpus
    if len(outgoing) != num_gpus:
        raise ValueError(
            f"expected {num_gpus} outgoing bucket rows, got {len(outgoing)}"
        )
    if values is not None and combine is None:
        raise ValueError("value exchange needs a combiner ('min' or 'sum')")
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; pick from {SCHEDULES}"
        )
    if topology.num_gpus != num_gpus:
        raise ValueError(
            f"topology is for {topology.num_gpus} GPUs, partition for "
            f"{num_gpus}"
        )
    stats = ExchangeStats(
        sent_ids_per_gpu=np.zeros(num_gpus, dtype=np.int64),
        received_ids_per_gpu=np.zeros(num_gpus, dtype=np.int64),
        record_trials=record_trials,
    )
    if schedule == "flat" or num_gpus == 1:
        incoming, in_vals = _exchange_flat(
            outgoing, partition, topology, codec, values, combine,
            value_width, stats,
        )
    elif schedule == "butterfly":
        incoming, in_vals = _exchange_butterfly(
            outgoing, partition, topology, codec, values, combine,
            value_width, stats,
        )
    else:
        incoming, in_vals = _exchange_hierarchical(
            outgoing, partition, topology, codec, values, combine,
            value_width, stats,
        )
    return incoming, in_vals, stats


def _exchange_flat(
    outgoing, partition, topology, codec, values, combine, value_width, stats
):
    num_gpus = partition.num_gpus
    step = _Step(topology)
    incoming: list[np.ndarray] = []
    in_vals: list[np.ndarray] | None = [] if values is not None else None
    for h in range(num_gpus):
        lo, hi = partition.bounds(h)
        ids_acc = outgoing[h][h]
        vals_acc = values[h][h] if values is not None else None
        for g in range(num_gpus):
            if g == h or outgoing[g][h].size == 0:
                continue
            ids = outgoing[g][h]
            decoded, nbytes = _encode_message(
                codec, ids, lo, hi, int(ids.shape[0]),
                value_width if values is not None else 0, stats,
                tier=step.tier_of(g, h),
            )
            step.add(g, h, nbytes)
            stats.sent_ids_per_gpu[g] += ids.shape[0]
            stats.received_ids_per_gpu[h] += decoded.shape[0]
            ids_acc, vals_acc = _combine(
                ids_acc,
                vals_acc,
                decoded,
                values[g][h] if values is not None else None,
                combine,
            )
        incoming.append(np.asarray(ids_acc, dtype=np.int64))
        if in_vals is not None:
            if vals_acc is None:
                vals_acc = np.empty(0, dtype=np.float64)
            in_vals.append(vals_acc)
    stats.rounds = 1
    step.finish(stats)
    return incoming, in_vals


def _send_state(
    src: int,
    dst: int,
    send_ids: np.ndarray,
    send_vals: np.ndarray | None,
    owners: np.ndarray,
    partition: VertexPartition,
    codec: WireCodec,
    values_on: bool,
    value_width: int,
    stats: ExchangeStats,
    step: _Step,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Encode one in-flight state message spanning its owners' ranges."""
    # The message spans every owner range of its items; bitmap/ef cost
    # covers that whole span.
    lo = int(partition.boundaries[int(owners.min())])
    hi = int(partition.boundaries[int(owners.max()) + 1])
    decoded, nbytes = _encode_message(
        codec, send_ids, lo, hi, int(send_ids.shape[0]),
        value_width if values_on else 0, stats,
        tier=step.tier_of(src, dst),
    )
    step.add(src, dst, nbytes)
    stats.sent_ids_per_gpu[src] += send_ids.shape[0]
    stats.received_ids_per_gpu[dst] += decoded.shape[0]
    return decoded, send_vals


def _exchange_butterfly(
    outgoing, partition, topology, codec, values, combine, value_width, stats
):
    num_gpus = partition.num_gpus
    # Live per-GPU state: sorted-unique ids still in flight (own bucket
    # included) and their values; owners recomputed from the partition.
    ids_state: list[np.ndarray] = []
    vals_state: list[np.ndarray | None] = []
    for g in range(num_gpus):
        acc = np.empty(0, dtype=np.int64)
        vacc = np.empty(0, dtype=np.float64) if values is not None else None
        for h in range(num_gpus):
            acc, vacc = _combine(
                acc, vacc, outgoing[g][h],
                values[g][h] if values is not None else None, combine,
            )
        ids_state.append(acc)
        vals_state.append(vacc)

    values_on = values is not None
    # Largest power of two <= P; GPUs past it fold onto proxy g - Q
    # before the rounds and collect their items back afterwards.
    hypercube = 1 << (num_gpus.bit_length() - 1)
    proxy_mask = hypercube - 1
    rounds = 0

    if num_gpus > hypercube:
        step = _Step(topology)
        for g in range(hypercube, num_gpus):
            owners = partition.owner(ids_state[g])
            away = owners != g
            send_ids = ids_state[g][away]
            send_vals = vals_state[g][away] if values_on else None
            keep_ids = ids_state[g][~away]
            keep_vals = vals_state[g][~away] if values_on else None
            ids_state[g], vals_state[g] = keep_ids, keep_vals
            if send_ids.size:
                decoded, send_vals = _send_state(
                    g, g & proxy_mask, send_ids, send_vals, owners[away],
                    partition, codec, values_on, value_width, stats, step,
                )
                proxy = g & proxy_mask
                ids_state[proxy], vals_state[proxy] = _combine(
                    ids_state[proxy], vals_state[proxy], decoded, send_vals,
                    combine,
                )
        step.finish(stats)
        rounds += 1

    for k in range(hypercube.bit_length() - 1):
        bit = 1 << k
        step = _Step(topology)
        sends: list[tuple[np.ndarray, np.ndarray | None]] = []
        keeps: list[tuple[np.ndarray, np.ndarray | None]] = []
        for g in range(hypercube):
            partner = g ^ bit
            owners = partition.owner(ids_state[g])
            # Route by the owner's hypercube proxy so folded GPUs'
            # items travel the same wires as their proxy's own.
            away = ((owners & proxy_mask) & bit).astype(bool) != bool(g & bit)
            send_ids = ids_state[g][away]
            send_vals = vals_state[g][away] if values_on else None
            keeps.append((ids_state[g][~away],
                          vals_state[g][~away] if values_on else None))
            sends.append((send_ids, send_vals))
            if send_ids.size:
                sends[-1] = _send_state(
                    g, partner, send_ids, send_vals, owners[away],
                    partition, codec, values_on, value_width, stats, step,
                )
        for g in range(hypercube):
            partner = g ^ bit
            ids_state[g], vals_state[g] = _combine(
                keeps[g][0], keeps[g][1], sends[partner][0], sends[partner][1],
                combine,
            )
        step.finish(stats)
        rounds += 1

    if num_gpus > hypercube:
        step = _Step(topology)
        for g in range(hypercube, num_gpus):
            proxy = g & proxy_mask
            owners = partition.owner(ids_state[proxy])
            away = owners == g
            send_ids = ids_state[proxy][away]
            send_vals = vals_state[proxy][away] if values_on else None
            keep_ids = ids_state[proxy][~away]
            keep_vals = vals_state[proxy][~away] if values_on else None
            ids_state[proxy], vals_state[proxy] = keep_ids, keep_vals
            if send_ids.size:
                decoded, send_vals = _send_state(
                    proxy, g, send_ids, send_vals, owners[away],
                    partition, codec, values_on, value_width, stats, step,
                )
                ids_state[g], vals_state[g] = _combine(
                    ids_state[g], vals_state[g], decoded, send_vals, combine,
                )
        step.finish(stats)
        rounds += 1

    stats.rounds = rounds
    in_vals = None
    if values_on:
        in_vals = [
            v if v is not None else np.empty(0, dtype=np.float64)
            for v in vals_state
        ]
    return ids_state, in_vals


def _exchange_hierarchical(
    outgoing, partition, topology, codec, values, combine, value_width, stats
):
    """Gather per destination node, cross the slow tier once, scatter.

    Phase A (intra): deliver same-node buckets directly, and gather
    each GPU's remote-node buckets on that node's designated *leader*
    (``node_base + dest_node % G`` — rotating so leadership spreads
    over the node), folding duplicates across the node's senders.
    Phase B (inter): one message per ordered node pair, leader to the
    destination node's *gateway*, carrying the deduplicated union.
    Phase C (intra): the gateway splits by owner and delivers locally.
    Every (sender, destination) contribution travels exactly one of
    the two paths, so min/sum folding stays exact.
    """
    num_gpus = partition.num_gpus
    node_size = topology.node_size
    num_nodes = topology.num_nodes
    values_on = values is not None

    def node_span(node: int) -> tuple[int, int]:
        return (
            int(partition.boundaries[node * node_size]),
            int(partition.boundaries[(node + 1) * node_size]),
        )

    empty = np.empty(0, dtype=np.int64)
    vempty = np.empty(0, dtype=np.float64)
    final_ids: list[np.ndarray] = [outgoing[g][g] for g in range(num_gpus)]
    final_vals: list[np.ndarray | None] = [
        values[g][g] if values_on else None for g in range(num_gpus)
    ]
    # staged[(leader, dest_node)] — the union the leader will forward.
    staged: dict[tuple[int, int], tuple[np.ndarray, np.ndarray | None]] = {}

    # -- phase A: intra-node delivery + per-destination-node gather ------
    step = _Step(topology)
    for g in range(num_gpus):
        node = g // node_size
        for h in range(node * node_size, (node + 1) * node_size):
            if h == g or outgoing[g][h].size == 0:
                continue
            lo, hi = partition.bounds(h)
            ids = outgoing[g][h]
            decoded, nbytes = _encode_message(
                codec, ids, lo, hi, int(ids.shape[0]),
                value_width if values_on else 0, stats,
                tier=step.tier_of(g, h),
            )
            step.add(g, h, nbytes)
            stats.sent_ids_per_gpu[g] += ids.shape[0]
            stats.received_ids_per_gpu[h] += decoded.shape[0]
            final_ids[h], final_vals[h] = _combine(
                final_ids[h], final_vals[h], decoded,
                values[g][h] if values_on else None, combine,
            )
        for dest in range(num_nodes):
            if dest == node:
                continue
            members = range(dest * node_size, (dest + 1) * node_size)
            chunks = [outgoing[g][h] for h in members if outgoing[g][h].size]
            if not chunks:
                continue
            # Owner ranges are contiguous, so the concatenation of the
            # destination node's buckets is already sorted and unique.
            ids = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            vals = None
            if values_on:
                vals = np.concatenate(
                    [values[g][h] for h in members if outgoing[g][h].size]
                )
            leader = node * node_size + (dest % node_size)
            if leader != g:
                lo, hi = node_span(dest)
                ids, nbytes = _encode_message(
                    codec, ids, lo, hi, int(ids.shape[0]),
                    value_width if values_on else 0, stats,
                    tier=step.tier_of(g, leader),
                )
                step.add(g, leader, nbytes)
                stats.sent_ids_per_gpu[g] += int(ids.shape[0])
                stats.received_ids_per_gpu[leader] += int(ids.shape[0])
            have = staged.get((leader, dest), (empty, vempty if values_on else None))
            staged[(leader, dest)] = _combine(
                have[0], have[1], ids, vals, combine
            )
    step.finish(stats)
    rounds = 1

    # -- phase B: one inter-node message per ordered node pair ------------
    gathered: list[tuple[np.ndarray, np.ndarray | None]] = [
        (empty, vempty if values_on else None) for _ in range(num_gpus)
    ]
    if num_nodes > 1:
        step = _Step(topology)
        for node in range(num_nodes):
            for dest in range(num_nodes):
                if dest == node:
                    continue
                leader = node * node_size + (dest % node_size)
                ids, vals = staged.get(
                    (leader, dest), (empty, vempty if values_on else None)
                )
                if ids.size == 0:
                    continue
                gateway = dest * node_size + (node % node_size)
                lo, hi = node_span(dest)
                decoded, nbytes = _encode_message(
                    codec, ids, lo, hi, int(ids.shape[0]),
                    value_width if values_on else 0, stats,
                    tier=step.tier_of(leader, gateway),
                )
                step.add(leader, gateway, nbytes)
                stats.sent_ids_per_gpu[leader] += ids.shape[0]
                stats.received_ids_per_gpu[gateway] += decoded.shape[0]
                gathered[gateway] = _combine(
                    gathered[gateway][0], gathered[gateway][1],
                    decoded, vals, combine,
                )
        step.finish(stats)
        rounds += 1

        # -- phase C: gateway scatters to owners over the fast tier ------
        step = _Step(topology)
        for gw in range(num_gpus):
            ids, vals = gathered[gw]
            if ids.size == 0:
                continue
            node = gw // node_size
            members = range(node * node_size, (node + 1) * node_size)
            cuts = np.searchsorted(
                ids, [partition.bounds(h)[0] for h in members]
                + [node_span(node)[1]]
            )
            for i, h in enumerate(members):
                part_ids = ids[cuts[i]:cuts[i + 1]]
                part_vals = vals[cuts[i]:cuts[i + 1]] if values_on else None
                if part_ids.size == 0:
                    continue
                if h != gw:
                    lo, hi = partition.bounds(h)
                    part_ids, nbytes = _encode_message(
                        codec, part_ids, lo, hi, int(part_ids.shape[0]),
                        value_width if values_on else 0, stats,
                        tier=step.tier_of(gw, h),
                    )
                    step.add(gw, h, nbytes)
                    stats.sent_ids_per_gpu[gw] += int(part_ids.shape[0])
                    stats.received_ids_per_gpu[h] += int(part_ids.shape[0])
                final_ids[h], final_vals[h] = _combine(
                    final_ids[h], final_vals[h], part_ids, part_vals, combine,
                )
        step.finish(stats)
        rounds += 1

    stats.rounds = rounds
    incoming = [np.asarray(ids, dtype=np.int64) for ids in final_ids]
    in_vals = None
    if values_on:
        in_vals = [
            v if v is not None else np.empty(0, dtype=np.float64)
            for v in final_vals
        ]
    return incoming, in_vals
