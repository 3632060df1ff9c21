"""Decode-path verification: fault injection + differential oracle.

The compressed formats (EFG, PEF, CGR, Ligra+, BV) promise that any
corruption of their streams either round-trips clean or raises a typed
:class:`~repro.core.errors.DecodeError` — never a foreign exception and
never silently-wrong neighbours.  This package is the harness that
keeps the promise honest:

* :mod:`repro.check.faults` — :data:`FORMAT_ENCODERS`, the one
  name -> encoder table (campaign order); seeded deterministic fault
  injectors (payload bit flips, truncation, metadata perturbation,
  offset swaps); and the two-pass classifier: a primary pass including
  the CRC integrity check (must show zero silent corruption) and a
  structural-only pass that skips the CRCs (must still show zero
  foreign exceptions — this is what proves the decoders themselves are
  hardened).  There is no per-format wrapper: each container carries
  its fault surface (``PAYLOAD_FIELD``, ``METADATA_FIELDS``, a
  ``decode_all()`` that raises only typed errors and
  ``verify_integrity()``), and mutated copies are rebuilt with
  :func:`dataclasses.replace`.  PEF, CGR, Ligra+ and BV share one
  statement of it, :class:`~repro.formats.integrity.ListContainer`;
  EFG and the serve container state their own.
* :mod:`repro.check.differential` — cross-format agreement at decode
  level (every format vs the uncompressed reference) and at algorithm
  level (BFS / SSSP / PageRank across backends and vs the sharded
  ``repro.dist`` drivers).
* :mod:`repro.check.report` — serialises campaign + differential
  results into the stable ``repro.metrics`` JSON layout for CI.

Driven by ``repro check [--fuzz N --seed S]``.
"""

from repro.check.differential import (
    CHECK_DATASETS,
    algorithm_differential,
    decode_differential,
    run_differential,
)
from repro.check.faults import (
    FAULT_INJECTORS,
    FORMAT_ENCODERS,
    FaultResult,
    default_fuzz_graph,
    run_fault_campaign,
)
from repro.check.report import check_report, summarize_faults

__all__ = [
    "FORMAT_ENCODERS",
    "FaultResult",
    "FAULT_INJECTORS",
    "run_fault_campaign",
    "default_fuzz_graph",
    "CHECK_DATASETS",
    "decode_differential",
    "algorithm_differential",
    "run_differential",
    "check_report",
    "summarize_faults",
]
