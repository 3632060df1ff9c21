"""Declarative experiment recipes: spec, validation, expansion.

A *recipe* is the declarative description of one experiment family —
``algo x format x reorder x gpus/nodes x dataset`` axes crossed with a
grid of tunable knobs (EFG quantum, decode-cache budget, wire codec,
exchange schedule, overlap, partial-sort bit fraction).  It is loaded
from a TOML or JSON file (or built programmatically) and expanded into
a **deterministic ordered run list**: same spec, same cells, same
order, every time — the property that makes recipe reports
byte-identical across invocations and lets CI gate them with ``cmp``.

Validation happens entirely at parse time, never mid-run: unknown axis
or knob names, values outside a knob's domain, empty axes, and
incoherent combinations (a distributed cell on a format the sharded
cluster cannot store) all raise :class:`RecipeError` from
:func:`load_recipe` / :meth:`RecipeSpec.expand` before any simulation
starts.

Expansion normalizes each cell before deduplication: knobs that cannot
affect a cell (wire codec on a single-GPU cell, EFG quantum on a CSR
cell, sort fraction on PageRank) are cleared, so grid points that
differ only in irrelevant knobs **collapse into one cell** — first
occurrence wins, deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.dist.dispatch import DIST_ALGOS
from repro.traversal.backends import GPU_FORMATS

__all__ = [
    "ALGOS",
    "DIST_ALGOS",
    "FORMATS",
    "KNOBS",
    "REORDERS",
    "RecipeCell",
    "RecipeDefaults",
    "RecipeError",
    "RecipeSpec",
    "dataset_id",
    "load_recipe",
    "parse_recipe",
]


class RecipeError(ValueError):
    """A recipe failed validation (bad axis, knob, value, or combo)."""


#: Algorithms a single-GPU cell can run (``repro profile`` set, plus
#: the closed-loop serving workload from :mod:`repro.serve`).
ALGOS = ("bfs", "dobfs", "msbfs", "sssp", "delta", "pagerank", "serve")

#: Single-GPU storage formats; distributed cells use repro.dist's set.
FORMATS = GPU_FORMATS

#: Vertex-relabelling orders applied to the graph before encoding.
REORDERS = ("none", "degree", "random")

#: Dataset generators a recipe can reference.
DATASET_KINDS = ("rmat", "web")


def _check_quantum(v) -> int:
    v = _as_int(v, "quantum")
    if v <= 0:
        raise RecipeError(f"knob quantum must be positive, got {v}")
    return v


def _check_cache_kb(v) -> int:
    v = _as_int(v, "cache_kb")
    if v < 0:
        raise RecipeError(f"knob cache_kb must be >= 0, got {v}")
    return v


def _check_wire(v) -> str:
    from repro.dist.wire import WIRE_CODECS

    if v not in WIRE_CODECS:
        raise RecipeError(
            f"knob wire must be one of {tuple(WIRE_CODECS)}, got {v!r}"
        )
    return str(v)


def _check_schedule(v) -> str:
    from repro.dist.exchange import SCHEDULES

    if v not in SCHEDULES:
        raise RecipeError(
            f"knob schedule must be one of {tuple(SCHEDULES)}, got {v!r}"
        )
    return str(v)


def _check_overlap(v) -> bool:
    if not isinstance(v, bool):
        raise RecipeError(f"knob overlap must be a boolean, got {v!r}")
    return v


def _check_sort_fraction(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RecipeError(f"knob sort_fraction must be a number, got {v!r}")
    v = float(v)
    if not 0.0 < v <= 1.0:
        raise RecipeError(f"knob sort_fraction must be in (0, 1], got {v}")
    return v


def _check_deadline_ms(v) -> str:
    from repro.serve.driver import parse_deadline_mix

    if not isinstance(v, str):
        raise RecipeError(
            f"knob deadline_ms must be a string mix like 'none,0.5', "
            f"got {v!r}"
        )
    try:
        parse_deadline_mix(v)
    except ValueError as exc:
        raise RecipeError(f"knob deadline_ms: {exc}") from None
    return str(v)


def _check_hot_fraction(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RecipeError(f"knob hot_fraction must be a number, got {v!r}")
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise RecipeError(f"knob hot_fraction must be in [0, 1], got {v}")
    return v


#: The searchable knob grid: name -> value validator/normalizer.
KNOBS = {
    "quantum": _check_quantum,
    "cache_kb": _check_cache_kb,
    "wire": _check_wire,
    "schedule": _check_schedule,
    "overlap": _check_overlap,
    "sort_fraction": _check_sort_fraction,
    "deadline_ms": _check_deadline_ms,
    "hot_fraction": _check_hot_fraction,
}


def _as_int(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise RecipeError(f"{name} must be an integer, got {v!r}")
    return int(v)


def dataset_id(dataset: dict) -> str:
    """Stable short id of one dataset spec (used in cell names)."""
    kind = dataset["kind"]
    if kind == "rmat":
        return (
            f"rmat-s{dataset['scale']}e{dataset['edge_factor']}"
            f"d{dataset['seed']}"
        )
    return (
        f"web-n{dataset['num_nodes']}e{dataset['edge_factor']}"
        f"d{dataset['seed']}"
    )


def _check_dataset(dataset, index: int) -> dict:
    if not isinstance(dataset, dict):
        raise RecipeError(f"dataset[{index}] must be a table, got {dataset!r}")
    kind = dataset.get("kind", "rmat")
    if kind not in DATASET_KINDS:
        raise RecipeError(
            f"dataset[{index}].kind must be one of {DATASET_KINDS}, "
            f"got {kind!r}"
        )
    out = {"kind": kind, "seed": _as_int(dataset.get("seed", 3), "seed")}
    if kind == "rmat":
        out["scale"] = _as_int(dataset.get("scale", 9), "scale")
        out["edge_factor"] = _as_int(
            dataset.get("edge_factor", 8), "edge_factor"
        )
    else:
        out["num_nodes"] = _as_int(dataset.get("num_nodes", 512), "num_nodes")
        out["edge_factor"] = _as_int(
            dataset.get("edge_factor", 8), "edge_factor"
        )
    extras = set(dataset) - set(out) - {"kind"}
    if extras:
        raise RecipeError(
            f"dataset[{index}] has unknown keys: {sorted(extras)}"
        )
    return out


@dataclass(frozen=True)
class RecipeDefaults:
    """Per-recipe constants shared by every cell (not axes)."""

    device_scale: float = 2048.0
    link_gbs: float = 10.0
    inter_gbs: float = 1.0
    contention: float = 0.5
    #: Seed of the start-vertex draw, stamped into the report meta.
    source_seed: int = 42
    #: Seed of generated edge weights (sssp/delta).
    weight_seed: int = 1
    #: Sources packed into an msbfs wave.
    num_sources: int = 32
    #: Closed-loop queries a serve cell drives.
    serve_queries: int = 200
    #: Queries submitted between waves on serve cells.
    serve_burst: int = 16


@dataclass(frozen=True)
class RecipeCell:
    """One fully-specified run of an expanded recipe.

    ``knobs`` holds only the knobs that can affect this cell — the
    normalization that makes duplicate-collapse well defined.
    """

    algo: str
    fmt: str
    reorder: str
    gpus: int
    nodes: int
    dataset: tuple[tuple[str, object], ...]
    knobs: tuple[tuple[str, object], ...]

    @property
    def is_dist(self) -> bool:
        """True when the cell runs on the sharded cluster."""
        return self.gpus > 1

    @property
    def dataset_dict(self) -> dict:
        return dict(self.dataset)

    @property
    def knobs_dict(self) -> dict:
        return dict(self.knobs)

    @property
    def name(self) -> str:
        """Deterministic, human-readable cell id (report key)."""
        base = (
            f"{self.algo}/{self.fmt}/{self.reorder}/"
            f"{dataset_id(self.dataset_dict)}/n{self.nodes}g{self.gpus}"
        )
        if self.knobs:
            pairs = ",".join(f"{k}={v}" for k, v in self.knobs)
            return f"{base}[{pairs}]"
        return base


#: Axis expansion order — fixed, so the run list order is part of the
#: recipe contract (report keys are sorted, but runs execute in this
#: order and any side effects, e.g. log lines, are reproducible).
_AXIS_ORDER = ("dataset", "algo", "fmt", "reorder", "layout", "knobs")

#: Knobs that only exist on the sharded-cluster path.
_DIST_ONLY_KNOBS = ("wire", "schedule", "overlap")

#: Knobs that only shape the closed-loop serving workload.
_SERVE_ONLY_KNOBS = ("deadline_ms", "hot_fraction")


@dataclass(frozen=True)
class RecipeSpec:
    """A validated recipe: axes + knob grid + defaults.

    Build programmatically or via :func:`load_recipe`.  ``expand()``
    yields the deterministic ordered cell list.
    """

    name: str
    algos: tuple[str, ...] = ("bfs",)
    formats: tuple[str, ...] = ("efg",)
    reorders: tuple[str, ...] = ("none",)
    #: ``(nodes, gpus)`` layouts; ``(1, 1)`` is the single-GPU path.
    layouts: tuple[tuple[int, int], ...] = ((1, 1),)
    datasets: tuple[tuple[tuple[str, object], ...], ...] = (
        (("kind", "rmat"), ("seed", 3), ("scale", 9), ("edge_factor", 8)),
    )
    #: Knob grid: name -> tuple of validated values.
    knobs: tuple[tuple[str, tuple[object, ...]], ...] = ()
    defaults: RecipeDefaults = field(default_factory=RecipeDefaults)

    def expand(self) -> list[RecipeCell]:
        """The deterministic ordered run list (validated, deduplicated).

        Cells are produced in fixed axis order (dataset, algo, format,
        reorder, layout, knob grid) and normalized — knobs that cannot
        affect a cell are dropped — before deduplication, so two grid
        points differing only in an irrelevant knob collapse into the
        first one.  Incoherent combinations raise :class:`RecipeError`
        here, at parse/validation time, never mid-run.
        """
        from repro.dist.cluster import DIST_FORMATS

        for axis, values in (
            ("algo", self.algos),
            ("format", self.formats),
            ("reorder", self.reorders),
            ("layout", self.layouts),
            ("dataset", self.datasets),
        ):
            if not values:
                raise RecipeError(f"axis {axis!r} is empty")
        knob_names = [k for k, _ in self.knobs]
        knob_grids = [vals for _, vals in self.knobs]
        for knob, vals in self.knobs:
            if not vals:
                raise RecipeError(f"knob axis {knob!r} is empty")

        cells: list[RecipeCell] = []
        seen: set = set()
        for dataset in self.datasets:
            for algo in self.algos:
                for fmt in self.formats:
                    for reorder in self.reorders:
                        for nodes, gpus in self.layouts:
                            for combo in _product(knob_grids):
                                knobs = dict(zip(knob_names, combo))
                                cell = _normalize_cell(
                                    algo, fmt, reorder, gpus, nodes,
                                    dataset, knobs, DIST_FORMATS,
                                )
                                if cell not in seen:
                                    seen.add(cell)
                                    cells.append(cell)
        return cells


def _product(grids: list[tuple]) -> list[tuple]:
    """Cartesian product in fixed order (itertools-free: keep it obvious)."""
    combos: list[tuple] = [()]
    for grid in grids:
        combos = [c + (v,) for c in combos for v in grid]
    return combos


def _normalize_cell(
    algo: str,
    fmt: str,
    reorder: str,
    gpus: int,
    nodes: int,
    dataset: tuple,
    knobs: dict,
    dist_formats: tuple[str, ...],
) -> RecipeCell:
    """Validate one combination and clear its irrelevant knobs."""
    is_dist = gpus > 1
    if is_dist:
        if algo not in DIST_ALGOS:
            raise RecipeError(
                f"algorithm {algo!r} has no distributed driver "
                f"(layout n{nodes}g{gpus}); distributed algos: {DIST_ALGOS}"
            )
        if fmt not in dist_formats:
            raise RecipeError(
                f"format {fmt!r} cannot shard (layout n{nodes}g{gpus}); "
                f"distributed formats: {tuple(dist_formats)}"
            )
        if gpus % nodes:
            raise RecipeError(
                f"layout n{nodes}g{gpus}: {gpus} GPUs not divisible "
                f"by {nodes} nodes"
            )
    else:
        for knob in _DIST_ONLY_KNOBS:
            knobs.pop(knob, None)
        # The decoded-list cache only amortizes actual decode work.
        if fmt == "csr":
            knobs.pop("cache_kb", None)
    if algo != "serve":
        # Workload-mix knobs shape the query stream, not the kernel.
        for knob in _SERVE_ONLY_KNOBS:
            knobs.pop(knob, None)
    if fmt != "efg":
        knobs.pop("quantum", None)
    if is_dist:
        # Shards never attach a decode cache (receive-side claims
        # dominate) and dist EFG encoding is per-shard with the
        # default quantum.
        knobs.pop("cache_kb", None)
        knobs.pop("quantum", None)
        if algo not in ("bfs", "sssp"):
            knobs.pop("sort_fraction", None)
    elif algo != "bfs":
        # Only the level-synchronous bfs driver exposes the partial
        # radix-sort fraction on the single-GPU path.
        knobs.pop("sort_fraction", None)
    return RecipeCell(
        algo=algo,
        fmt=fmt,
        reorder=reorder,
        gpus=gpus,
        nodes=nodes,
        dataset=dataset,
        knobs=tuple(sorted(knobs.items())),
    )


# -- file loading ---------------------------------------------------------


def _load_table(path: str) -> dict:
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise RecipeError(f"{path}: invalid JSON ({exc})") from exc
    try:
        import tomllib
    except ImportError as exc:  # pragma: no cover - python < 3.11
        raise RecipeError(
            f"{path}: TOML recipes need python >= 3.11 (tomllib); "
            "use a .json recipe instead"
        ) from exc
    with open(path, "rb") as fh:
        try:
            return tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise RecipeError(f"{path}: invalid TOML ({exc})") from exc


def _as_str_list(raw, axis: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    if not isinstance(raw, list):
        raise RecipeError(f"axis {axis!r} must be a list, got {raw!r}")
    if not raw:
        raise RecipeError(f"axis {axis!r} is empty")
    out = []
    for v in raw:
        if v not in allowed:
            raise RecipeError(
                f"axis {axis!r}: {v!r} not in {tuple(allowed)}"
            )
        out.append(str(v))
    return tuple(out)


def parse_recipe(table: dict, name: str | None = None) -> RecipeSpec:
    """Validate a raw recipe table (parsed TOML/JSON) into a spec.

    Every error any run could later hit from a malformed spec is
    raised here; a returned spec always expands cleanly.
    """
    if not isinstance(table, dict):
        raise RecipeError(f"recipe must be a table, got {table!r}")
    known = {"name", "axes", "knobs", "defaults", "dataset"}
    extras = set(table) - known
    if extras:
        raise RecipeError(f"unknown recipe sections: {sorted(extras)}")
    rname = table.get("name", name or "recipe")
    if not isinstance(rname, str) or not rname:
        raise RecipeError(f"recipe name must be a string, got {rname!r}")

    axes = table.get("axes", {})
    if not isinstance(axes, dict):
        raise RecipeError(f"[axes] must be a table, got {axes!r}")
    extras = set(axes) - {"algo", "format", "reorder", "gpus", "nodes"}
    if extras:
        raise RecipeError(f"unknown axes: {sorted(extras)}")
    algos = _as_str_list(axes.get("algo", ["bfs"]), "algo", ALGOS)
    formats = _as_str_list(axes.get("format", ["efg"]), "format", FORMATS)
    reorders = _as_str_list(
        axes.get("reorder", ["none"]), "reorder", REORDERS
    )
    gpus_axis = axes.get("gpus", [1])
    nodes_axis = axes.get("nodes", [1])
    for axis, raw in (("gpus", gpus_axis), ("nodes", nodes_axis)):
        if not isinstance(raw, list):
            raise RecipeError(f"axis {axis!r} must be a list, got {raw!r}")
        if not raw:
            raise RecipeError(f"axis {axis!r} is empty")
        for v in raw:
            if _as_int(v, axis) < 1:
                raise RecipeError(f"axis {axis!r}: {v} must be >= 1")
    layouts = tuple(
        (int(n), int(g)) for n in nodes_axis for g in gpus_axis
    )

    raw_datasets = table.get("dataset", [{}])
    if isinstance(raw_datasets, dict):
        raw_datasets = [raw_datasets]
    if not isinstance(raw_datasets, list):
        raise RecipeError(f"dataset must be a table array, got {raw_datasets!r}")
    if not raw_datasets:
        raise RecipeError("axis 'dataset' is empty")
    datasets = tuple(
        tuple(sorted(_check_dataset(d, i).items()))
        for i, d in enumerate(raw_datasets)
    )

    raw_knobs = table.get("knobs", {})
    if not isinstance(raw_knobs, dict):
        raise RecipeError(f"[knobs] must be a table, got {raw_knobs!r}")
    knobs: list[tuple[str, tuple]] = []
    for knob in raw_knobs:
        if knob not in KNOBS:
            raise RecipeError(
                f"unknown knob {knob!r}; knobs: {', '.join(sorted(KNOBS))}"
            )
        vals = raw_knobs[knob]
        if not isinstance(vals, list):
            vals = [vals]
        if not vals:
            raise RecipeError(f"knob axis {knob!r} is empty")
        knobs.append((knob, tuple(KNOBS[knob](v) for v in vals)))
    knobs.sort()

    raw_defaults = table.get("defaults", {})
    if not isinstance(raw_defaults, dict):
        raise RecipeError(f"[defaults] must be a table, got {raw_defaults!r}")
    valid = RecipeDefaults.__dataclass_fields__
    extras = set(raw_defaults) - set(valid)
    if extras:
        raise RecipeError(f"unknown defaults: {sorted(extras)}")
    defaults = RecipeDefaults(**raw_defaults)

    spec = RecipeSpec(
        name=rname,
        algos=algos,
        formats=formats,
        reorders=reorders,
        layouts=layouts,
        datasets=datasets,
        knobs=tuple(knobs),
        defaults=defaults,
    )
    spec.expand()  # validation: every combination must be coherent
    return spec


def load_recipe(path: str) -> RecipeSpec:
    """Load + validate a recipe from a ``.toml`` or ``.json`` file."""
    table = _load_table(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_recipe(table, name=stem)
