"""sha256 pins of the derived views of CLI-default runs.

The profile and roofline reports, the critical-path segment list, the
distributed per-level table and the dump's ``levels`` section are all
derived from a run's launch records and level charges.  Where a view
reads its numbers from must not move any character of it; these
digests were recorded before the views moved onto the ledgers.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import cli
from repro.bench.harness import make_weights, run_profiled
from repro.dist.report import dist_report, dist_run_metrics
from repro.obs.critpath import extract_critical_path
from repro.obs.roofline import roofline_report


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _profiled_engine(argv):
    """The engine of ``repro profile <argv>`` after its run."""
    args = cli.build_parser().parse_args(["profile", *argv])
    graph, _ = cli._graph(args)
    weighted = args.algo in ("sssp", "delta")
    backend = cli._cli_backend(
        args, graph, 4 * graph.num_edges if weighted else 0
    )
    run_profiled(
        args.algo,
        backend,
        source=args.source if args.algo == "pagerank"
        else cli._source(args, graph),
        weights=make_weights(graph, args.seed) if weighted else None,
    )
    return backend.engine


def _dist_cluster(argv):
    """The cluster of ``repro dist <argv>`` after its run."""
    args = cli.build_parser().parse_args(["dist", *argv])
    graph, _ = cli._graph(args)
    cluster, _ = cli._cluster_runner(args, graph)(args.wire, args.overlap)
    return cluster


#: profile argv -> (profile_report, roofline_report, critical-path
#: segments) digests.
PROFILE_PINS = {
    "bfs-efg-cache": (
        ["bfs", "--format", "efg", "--cache-kb", "64"],
        (
            "c6b668f695deebec78c7f3cfb96880c84c0cc0461734c991c9cb61d8da249e4e",
            "60790e13a87922637d49ba5583b339f1f566f7b852e520795b6febc495fe69cb",
            "52786267daec36128c31ad75223e41bbc6c0481442b3aecd20d1bda966bc0e4d",
        ),
    ),
    "pagerank-efg-cache": (
        ["pagerank", "--format", "efg", "--cache-kb", "64"],
        (
            "3956ae172584f84558eb75c420855f8e85490705c386d259a14f457010704622",
            "ed72bdc4413b2c9fceccded6e0fb64a4ceabe987def9c8441ff9dd7375f7729d",
            "6e657038cc13c65daaded508fafd7f5f1fc498556938eb4a44c4563d7975b48e",
        ),
    ),
    "delta-cgr": (
        ["delta", "--format", "cgr"],
        (
            "3f29bfa7ccbd1a46f55b90a49fcebae4fa7d97d0bd47933208d8f90da9c7d63f",
            "e0985666408c75282711648f08c6873ff4f805a9f213d8fcd87774c9211d2580",
            "9d4c359939b8b569ea6fc28a831954f13f233cb1178247aeaadc3471fe19cc06",
        ),
    ),
}

#: dist argv -> (dist_report, dump ``levels`` section) digests.
DIST_PINS = {
    "bfs-hier-overlap-ef": (
        ["bfs", "--gpus", "8", "--nodes", "2", "--schedule",
         "hierarchical", "--overlap", "--wire", "ef"],
        (
            "957c74872c078ead11cb276722dd00b7015236928919a6aa8cd4d3f7f8852bf4",
            "44e0b178dd1c09fb575717db6ed2387ad6c7e72aa63fa4b5953501eb7b7e96e8",
        ),
    ),
    "pagerank-hier": (
        ["pagerank", "--gpus", "8", "--nodes", "2", "--schedule",
         "hierarchical"],
        (
            "7540a8ed64b334092e3924a7077ac956eb7f39e45fd93614e9c4b6e91603e420",
            "605810d25e28e495187831040559854d93bd4a07656c5e2648879f42f6056710",
        ),
    ),
}


@pytest.mark.parametrize("name", list(PROFILE_PINS))
def test_profile_views_are_pinned(name):
    argv, (profile, roofline, segments) = PROFILE_PINS[name]
    engine = _profiled_engine(argv)
    got = (
        _sha(engine.profile_report()),
        _sha(roofline_report(engine)),
        _sha(repr(extract_critical_path(engine).segments)),
    )
    assert got == (profile, roofline, segments)


@pytest.mark.parametrize("name", list(DIST_PINS))
def test_dist_views_are_pinned(name):
    argv, (report, levels) = DIST_PINS[name]
    cluster = _dist_cluster(argv)
    got = (
        _sha(dist_report(cluster)),
        _sha(json.dumps(dist_run_metrics(cluster)["levels"], sort_keys=True)),
    )
    assert got == (report, levels)
