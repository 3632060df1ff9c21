"""Quantized-weight SSSP extension (the paper's out-of-scope item).

Sec. VI-F leaves weight compression out of scope; 8-bit codebook
quantization shrinks the O(|E|) weight array 4x, so SSSP stays in the
all-resident regime on graphs where float32 weights would stream
(Fig. 10 regions shift right) — at a bounded distance error.
"""

import numpy as np
from conftest import run_once, save_records

from repro.bench.harness import SCALED_TITAN_XP, encoded_suite_graph, make_backend, pick_sources
from repro.bench.report import format_table
from repro.core.efg import efg_encode
from repro.formats.quantized_weights import quantization_error, quantize_weights
from repro.formats.weights import generate_edge_weights
from repro.gpusim.device import TITAN_XP
from repro.traversal.backends import EFGBackend
from repro.traversal.sssp import sssp

GRAPHS = ("twitter", "sk-05", "gsh-15-h_sym")


def _run():
    records = []
    for name in GRAPHS:
        enc = encoded_suite_graph(name)
        graph = enc.graph
        weights = generate_edge_weights(graph, seed=17)
        quant = quantize_weights(weights)
        src = int(pick_sources(graph, 1)[0])

        f32 = EFGBackend(
            enc.get("efg"), SCALED_TITAN_XP, weight_bytes=weights.nbytes
        )
        q8 = EFGBackend(
            enc.get("efg"), SCALED_TITAN_XP, weight_bytes=quant.nbytes
        )
        exact = sssp(f32, src, weights)
        approx = sssp(q8, src, quant.dequantize())
        finite = np.isfinite(exact.distances)
        dist_err = float(
            np.abs(approx.distances[finite] - exact.distances[finite]).max()
        ) if finite.any() else 0.0
        werr = quantization_error(weights, quant)
        records.append(
            {
                "name": name,
                "f32_weights_resident": f32.engine.memory.plan()["weights"].residency.value == "device",
                "q8_weights_resident": q8.engine.memory.plan()["weights"].residency.value == "device",
                "f32_ms": exact.runtime_ms,
                "q8_ms": approx.runtime_ms,
                "speedup": exact.runtime_ms / approx.runtime_ms,
                "weight_rmse": werr["rmse"],
                "max_distance_error": dist_err,
            }
        )
    return records


def test_quantized_weights(benchmark, results_dir):
    records = run_once(benchmark, _run)
    print()
    print(
        format_table(
            ["graph", "f32 res.", "q8 res.", "f32 ms", "q8 ms", "speedup",
             "max dist err"],
            [
                [r["name"], str(r["f32_weights_resident"]),
                 str(r["q8_weights_resident"]), r["f32_ms"], r["q8_ms"],
                 r["speedup"], r["max_distance_error"]]
                for r in records
            ],
            title="SSSP with 8-bit quantized weights (weight compression)",
        )
    )
    save_records(results_dir, "quantized_weights", records)

    # Quantization keeps distances accurate everywhere.
    for r in records:
        assert r["max_distance_error"] < 0.1, r["name"]
        assert r["weight_rmse"] < 0.01, r["name"]
    # On at least one graph the 4x smaller weights flip residency and
    # speed SSSP up materially.
    flipped = [
        r for r in records
        if r["q8_weights_resident"] and not r["f32_weights_resident"]
    ]
    assert flipped, "expected a residency flip in the chosen suite"
    assert max(r["speedup"] for r in flipped) > 1.5
