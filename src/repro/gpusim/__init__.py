"""GPU execution substrate: a SIMT device + analytic performance model.

The paper's results were measured on Titan Xp / V100 GPUs.  Without GPU
hardware we substitute a simulator (see DESIGN.md):

* kernels execute **functionally** in vectorized NumPy — decoded edges,
  BFS levels, SSSP distances, PageRank values are exact;
* every kernel launch records the memory traffic it actually generated
  (bytes per array, access pattern, residency) plus an instruction
  count, and an analytic :class:`CostModel` converts that into a
  deterministic simulated runtime.

The performance story the paper tells is bandwidth arithmetic — device
DRAM is ~35-60x faster than the PCIe link — so charging measured
traffic at the right bandwidth preserves who-wins and crossover shapes.
"""

from repro.gpusim.cost import AccessPattern, CostModel, CostParams, KernelCost
from repro.gpusim.device import CPU_E5_2696V4_X2, DeviceSpec, TITAN_XP, V100
from repro.gpusim.engine import SimEngine
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryManager, Residency
from repro.gpusim.trace import timeline_events
from repro.gpusim.uvm import UVMSimulator

__all__ = [
    "DeviceSpec",
    "TITAN_XP",
    "V100",
    "CPU_E5_2696V4_X2",
    "MemoryManager",
    "Residency",
    "CostModel",
    "CostParams",
    "KernelCost",
    "AccessPattern",
    "KernelLaunch",
    "SimEngine",
    "UVMSimulator",
    "timeline_events",
]
