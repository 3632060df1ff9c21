"""Sharded traversal over multiple simulated GPUs.

The paper's introduction names distribution across devices as the
classic answer to graphs that exceed one GPU's memory, with EFG as the
single-GPU alternative; this package makes the comparison honest.  It
models the part every multi-GPU BFS paper ends up fighting — the
frontier exchange:

* :mod:`repro.dist.partition` — 1-D contiguous vertex sharding;
* :mod:`repro.dist.topology` — per-link serialization of the
  all-to-all (each GPU's ingress/egress occupies its own link, with
  configurable contention on the shared host fabric), optionally split
  into two tiers: fast intra-node links and a slow inter-node fabric;
* :mod:`repro.dist.wire` — frontier wire codecs (raw int32 ids, dense
  bitmap, delta+varint, Elias-Fano) with trial-size auto-selection, so
  compressed-frontier *communication* can be weighed against EFG's
  compressed-*storage* answer;
* :mod:`repro.dist.exchange` — the exchange step itself, as a flat
  single-step all-to-all, a butterfly (log-step hypercube, generalized
  to any GPU count) schedule, or a hierarchical gather/scatter that
  combines frontiers inside each node before crossing the slow tier;
* :mod:`repro.dist.bfs` / :mod:`~repro.dist.sssp` /
  :mod:`~repro.dist.pagerank` — bulk-synchronous drivers sharing the
  partition/exchange machinery, instrumented with the
  :mod:`repro.obs` span/metrics layer;
* :mod:`repro.dist.dispatch` — :func:`run_distributed`, the one
  name-to-driver dispatch every front-end shares.
"""

from repro.dist.bfs import DistBFSResult, distributed_bfs
from repro.dist.cluster import DIST_FORMATS, ShardedCluster
from repro.dist.dispatch import DIST_ALGOS, run_distributed
from repro.dist.exchange import SCHEDULES, ExchangeStats, exchange
from repro.dist.pagerank import DistPageRankResult, distributed_pagerank
from repro.dist.partition import VertexPartition
from repro.dist.report import (
    dist_report,
    dist_run_metrics,
    verify_dist_attribution,
)
from repro.dist.sssp import DistSSSPResult, distributed_sssp
from repro.dist.topology import (
    DEFAULT_INTER_BANDWIDTH,
    DEFAULT_PEER_BANDWIDTH,
    TIERS,
    LinkTopology,
    build_topology,
)
from repro.dist.wire import (
    FRONTIER_ID_BYTES,
    WIRE_CODECS,
    EliasFanoCodec,
    WireCodec,
    get_codec,
)

__all__ = [
    "DEFAULT_INTER_BANDWIDTH",
    "DEFAULT_PEER_BANDWIDTH",
    "DIST_ALGOS",
    "DIST_FORMATS",
    "DistBFSResult",
    "DistPageRankResult",
    "DistSSSPResult",
    "EliasFanoCodec",
    "ExchangeStats",
    "FRONTIER_ID_BYTES",
    "LinkTopology",
    "SCHEDULES",
    "ShardedCluster",
    "TIERS",
    "VertexPartition",
    "WIRE_CODECS",
    "WireCodec",
    "build_topology",
    "distributed_bfs",
    "distributed_pagerank",
    "distributed_sssp",
    "dist_report",
    "dist_run_metrics",
    "exchange",
    "get_codec",
    "run_distributed",
    "verify_dist_attribution",
]
