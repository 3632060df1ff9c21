"""Seeded fault injection against the compressed decode paths.

Every trial mutates one encoded container — a payload bit flip, a
payload truncation, a metadata perturbation, or an offset swap — and
classifies what the decode stack does about it:

``ok``
    The mutation was semantically inert (e.g. a swap of equal offsets);
    the decode is bit-identical to the clean stream.
``detected``
    A typed :class:`~repro.core.errors.DecodeError` was raised, either
    by the CRC integrity check (``detected_by="integrity"``) or by the
    structural/decode guards (``detected_by="decode"``).
``silent-corruption``
    The decode "succeeded" but produced different neighbours.
``foreign-exception``
    Anything other than a ``DecodeError`` escaped — the one outcome the
    hardened decoders must never produce.

Each trial is classified twice: the **primary** pass runs the CRC
integrity check first (the deployment posture — it must show zero
silent corruption), and a **structural** pass skips the CRCs and goes
straight to the decoder (silent corruption is expected there for e.g.
lower-bit flips, but foreign exceptions still must not occur — that is
the test of the decoder hardening itself).

Each container carries its fault surface: ``PAYLOAD_FIELD`` names the
uint8 array bits are flipped in, ``METADATA_FIELDS`` the integer arrays
that may be perturbed, ``verify_integrity()`` is the CRC check and
``decode_all()`` the full decode that must raise only typed errors.
The list-at-a-time formats (PEF, CGR, Ligra+, BV) inherit all four from
:class:`~repro.formats.integrity.ListContainer`; EFG and the serve
container state their own.  Mutated containers are rebuilt with
:func:`dataclasses.replace`.

Everything is deterministic in ``(seed, format, trial)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.efg import efg_encode
from repro.core.errors import DecodeError
from repro.core.pefgraph import pefg_encode
from repro.formats.bv import bv_encode
from repro.formats.cgr import cgr_encode
from repro.formats.graph import Graph
from repro.formats.ligra_plus import ligra_encode
from repro.serve.container import GraphContainer

__all__ = [
    "FORMAT_ENCODERS",
    "FaultResult",
    "FAULT_INJECTORS",
    "run_fault_campaign",
    "default_fuzz_graph",
]

#: Outcome labels, in severity order.
OUTCOMES = ("ok", "detected", "silent-corruption", "foreign-exception")

#: Every fuzzable format's encoder, in campaign order.
FORMAT_ENCODERS = {
    "efg": efg_encode,
    "pef": pefg_encode,
    "cgr": cgr_encode,
    "ligra": ligra_encode,
    "bv": bv_encode,
    "container": GraphContainer.from_graph,
}


def resolve_formats(fmts: tuple[str, ...] | None) -> tuple[str, ...]:
    """``fmts`` (default: all, in campaign order), each one registered."""
    names = tuple(fmts) if fmts is not None else tuple(FORMAT_ENCODERS)
    unknown = [n for n in names if n not in FORMAT_ENCODERS]
    if unknown:
        raise ValueError(
            f"unknown format(s) {', '.join(map(repr, unknown))}; "
            f"pick from {', '.join(FORMAT_ENCODERS)}"
        )
    return names


@dataclass(frozen=True)
class FaultResult:
    """Classification of one injected fault (both passes)."""

    fmt: str
    injector: str
    trial: int
    detail: str
    outcome: str
    detected_by: str | None = None
    error: str = ""
    structural_outcome: str = ""
    structural_detected_by: str | None = None
    structural_error: str = field(default="", repr=False)


# --- injectors -------------------------------------------------------
#
# Each takes (container, rng) and returns (detail, mutated) or None when
# the container has nothing to mutate that way (e.g. an empty payload).
# Mutations always copy; the clean container stays frozen.


def _inject_payload_bitflip(container, rng: np.random.Generator):
    data = getattr(container, container.PAYLOAD_FIELD)
    if data.shape[0] == 0:
        return None
    byte = int(rng.integers(data.shape[0]))
    bit = int(rng.integers(8))
    mutated = data.copy()
    mutated[byte] ^= np.uint8(1 << bit)
    return f"flip bit {bit} of payload byte {byte}", replace(
        container, **{container.PAYLOAD_FIELD: mutated}
    )


def _inject_payload_truncate(container, rng: np.random.Generator):
    data = getattr(container, container.PAYLOAD_FIELD)
    if data.shape[0] == 0:
        return None
    cut = int(rng.integers(1, min(16, data.shape[0]) + 1))
    mutated = data[: data.shape[0] - cut].copy()
    return f"truncate payload by {cut} bytes", replace(
        container, **{container.PAYLOAD_FIELD: mutated}
    )


def _inject_metadata_perturb(container, rng: np.random.Generator):
    fields = sorted(container.METADATA_FIELDS)
    name = fields[int(rng.integers(len(fields)))]
    arr = getattr(container, name)
    if arr.shape[0] == 0:
        return None
    idx = int(rng.integers(arr.shape[0]))
    mutated = arr.copy()
    if name == "num_lower_bits":
        # The known regression shape: an absurd-but-positive l (e.g.
        # 60) that inflates the lower section past the list bytes.
        new = int(rng.integers(33, 80))
        if new == int(mutated[idx]):
            new += 1
        mutated[idx] = new
        detail = f"set num_lower_bits[{idx}] = {new}"
    else:
        delta = int(rng.integers(1, 9)) * (1 if rng.integers(2) else -1)
        mutated[idx] += delta
        detail = f"perturb {name}[{idx}] by {delta:+d}"
    return detail, replace(container, **{name: mutated})


def _inject_offset_swap(container, rng: np.random.Generator):
    offset_like = [
        n for n in sorted(container.METADATA_FIELDS) if n in ("offsets", "vlist")
    ]
    if not offset_like:
        return None
    name = offset_like[int(rng.integers(len(offset_like)))]
    arr = getattr(container, name)
    if arr.shape[0] < 2:
        return None
    i = int(rng.integers(arr.shape[0] - 1))
    j = int(rng.integers(i + 1, arr.shape[0]))
    mutated = arr.copy()
    mutated[i], mutated[j] = mutated[j], mutated[i]
    return f"swap {name}[{i}] <-> {name}[{j}]", replace(
        container, **{name: mutated}
    )


#: Each format's RNG stream, fixed so its faults do not depend on which
#: other formats run.  Stream 5 fuzzed the retired npz graph files; it
#: stays unused so every remaining format keeps its fault sequence.
_FAULT_STREAMS = {"efg": 0, "pef": 1, "cgr": 2, "ligra": 3, "bv": 4, "container": 6}


#: Campaign rotation: trial ``t`` uses injector ``t % len(...)``.
FAULT_INJECTORS = {
    "payload-bitflip": _inject_payload_bitflip,
    "payload-truncate": _inject_payload_truncate,
    "metadata-perturb": _inject_metadata_perturb,
    "offset-swap": _inject_offset_swap,
}


# --- classification --------------------------------------------------


def _error_string(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _decode_stage(container, clean: np.ndarray) -> tuple[str, str | None, str]:
    """Decode + output-compare; returns (outcome, detected_by, error)."""
    try:
        out = container.decode_all()
    except DecodeError as exc:
        return "detected", "decode", _error_string(exc)
    except Exception as exc:  # noqa: BLE001 - the whole point is to catch these
        return "foreign-exception", None, _error_string(exc)
    if out.shape == clean.shape and np.array_equal(out, clean):
        return "ok", None, ""
    return "silent-corruption", None, (
        f"decode returned {out.shape[0]} values vs {clean.shape[0]} clean"
        if out.shape != clean.shape
        else "decode returned different neighbour values"
    )


def classify_fault(
    container, clean: np.ndarray
) -> tuple[tuple[str, str | None, str], tuple[str, str | None, str]]:
    """Classify one mutated container; returns (primary, structural).

    Primary runs ``verify_integrity`` first; structural always drives
    the decoder so foreign exceptions cannot hide behind the CRC.
    """
    structural = _decode_stage(container, clean)
    try:
        container.verify_integrity()
    except DecodeError as exc:
        primary = ("detected", "integrity", _error_string(exc))
    except Exception as exc:  # noqa: BLE001
        primary = ("foreign-exception", None, _error_string(exc))
    else:
        primary = structural
    return primary, structural


def default_fuzz_graph() -> Graph:
    """Deterministic fuzz target: web-like, so every format's machinery
    is exercised (runs -> CGR intervals and BV references, plus enough
    residual entropy for EF lower bits)."""
    from repro.datasets.web import web_graph

    return web_graph(512, 8.0, seed=3, name="check-web")


def run_fault_campaign(
    graph: Graph,
    fmts: tuple[str, ...] | None = None,
    trials: int = 200,
    seed: int = 7,
) -> list[FaultResult]:
    """Inject ``trials`` seeded faults per format and classify each."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    names = resolve_formats(fmts)
    injectors = list(FAULT_INJECTORS.items())
    results: list[FaultResult] = []
    for name in names:
        container = FORMAT_ENCODERS[name](graph)
        clean = container.decode_all()
        for t in range(trials):
            rng = np.random.default_rng([seed, _FAULT_STREAMS[name], t])
            inj_name, injector = injectors[t % len(injectors)]
            injected = injector(container, rng)
            if injected is None:
                # Not applicable (empty target array); fall back to the
                # universally applicable metadata perturbation.
                inj_name = "metadata-perturb"
                injected = _inject_metadata_perturb(container, rng)
            if injected is None:  # pragma: no cover - degenerate graphs only
                continue
            detail, mutated = injected
            primary, structural = classify_fault(mutated, clean)
            results.append(
                FaultResult(
                    fmt=name,
                    injector=inj_name,
                    trial=t,
                    detail=detail,
                    outcome=primary[0],
                    detected_by=primary[1],
                    error=primary[2],
                    structural_outcome=structural[0],
                    structural_detected_by=structural[1],
                    structural_error=structural[2],
                )
            )
    return results
