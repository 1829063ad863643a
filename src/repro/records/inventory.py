"""Table 1 of the paper, encoded as data: the 22 LANL systems.

The print of Table 1 in the available text interleaves its columns, so
this encoding is a careful reconstruction.  What it preserves exactly:

* system IDs 1-22, hardware types A-H, SMP/NUMA architecture,
* node and (within 0.3%) processor totals per system,
* production windows per node category,
* the documented multi-category systems: system 4 (two deployment
  waves), system 7 (8/16/32/352 GB memory tiers), system 8 (8/16/32 GB),
  system 12 (4 vs 16 GB), system 18 (a short-lived 03/05-06/05 slice),
  system 19 (32/64 GB), system 20 (node 0 is a late-production 80-proc
  node, per the paper's footnote 4), system 21 (4x128-proc + 1x32-proc).

Known deviations (see DESIGN.md section 6): system 20's three category
rows cannot be combined into exactly 6152 processors with integer node
counts, so we encode 48x128 + 1x80 = 6224; and two ambiguous category
rows that could not be attributed to a system are dropped.  Encoded
totals: 4750 nodes (exact), 24164 processors vs 24101 published.
"""

from __future__ import annotations

from typing import Dict

from repro.records.node import NodeCategory
from repro.records.system import HardwareArchitecture, HardwareType, SystemConfig
from repro.records.timeutils import from_datetime
import datetime as _dt

__all__ = [
    "DATA_START",
    "DATA_END",
    "LANL_SYSTEMS",
    "total_nodes",
    "total_processors",
]

#: Opening of the remedy database (June 1996): "N/A" production starts
#: clamp here, since no earlier failures exist in the data.
DATA_START = from_datetime(_dt.datetime(1996, 6, 1))

#: End of the released data (through November 2005).
DATA_END = from_datetime(_dt.datetime(2005, 12, 1))

_SMP = HardwareArchitecture.SMP
_NUMA = HardwareArchitecture.NUMA


def _system(
    system_id: int,
    hw: str,
    arch: HardwareArchitecture,
    *categories: NodeCategory,
) -> SystemConfig:
    return SystemConfig(
        system_id=system_id,
        hardware_type=HardwareType(hw),
        architecture=arch,
        categories=tuple(categories),
    )


def _cat(
    nodes: int,
    procs: int,
    mem: float,
    nics: int,
    start: str = "N/A",
    end: str = "now",
) -> NodeCategory:
    return NodeCategory(
        node_count=nodes,
        procs_per_node=procs,
        memory_gb=mem,
        nics=nics,
        production_start=start,
        production_end=end,
    )


#: Table 1, keyed by system ID.
LANL_SYSTEMS: Dict[int, SystemConfig] = {
    config.system_id: config
    for config in (
        # -- Small single-node SMP systems (types A-C) ---------------------
        _system(1, "A", _SMP, _cat(1, 8, 16, 0, "N/A", "12/99")),
        _system(2, "B", _SMP, _cat(1, 32, 8, 1, "N/A", "12/03")),
        _system(3, "C", _SMP, _cat(1, 4, 1, 0, "N/A", "04/03")),
        # -- Type D: the first large-scale SMP cluster at LANL -------------
        _system(
            4, "D", _SMP,
            _cat(82, 2, 1, 1, "04/01", "now"),
            _cat(82, 2, 1, 1, "12/02", "now"),
        ),
        # -- Type E: 2-way/4-way SMP clusters (systems 5-12) ---------------
        _system(5, "E", _SMP, _cat(256, 4, 16, 2, "12/01", "now")),
        _system(6, "E", _SMP, _cat(128, 4, 16, 2, "09/01", "01/02")),
        _system(
            7, "E", _SMP,
            _cat(632, 4, 8, 2, "05/02", "now"),
            _cat(256, 4, 16, 2, "05/02", "now"),
            _cat(128, 4, 32, 2, "05/02", "now"),
            _cat(8, 4, 352, 2, "05/02", "now"),
        ),
        _system(
            8, "E", _SMP,
            _cat(512, 4, 8, 2, "10/02", "now"),
            _cat(256, 4, 16, 2, "10/02", "now"),
            _cat(256, 4, 32, 2, "10/02", "now"),
        ),
        _system(9, "E", _SMP, _cat(128, 4, 4, 1, "09/03", "now")),
        _system(10, "E", _SMP, _cat(128, 4, 4, 1, "09/03", "now")),
        _system(11, "E", _SMP, _cat(128, 4, 4, 1, "09/03", "now")),
        _system(
            12, "E", _SMP,
            _cat(16, 4, 4, 1, "09/03", "now"),
            _cat(16, 4, 16, 1, "09/03", "now"),
        ),
        # -- Type F: 2-way SMP clusters (systems 13-18) ---------------------
        _system(13, "F", _SMP, _cat(128, 2, 4, 1, "09/03", "now")),
        _system(14, "F", _SMP, _cat(256, 2, 4, 1, "09/03", "now")),
        _system(15, "F", _SMP, _cat(256, 2, 4, 1, "09/03", "now")),
        _system(16, "F", _SMP, _cat(256, 2, 4, 1, "09/03", "now")),
        _system(17, "F", _SMP, _cat(256, 2, 4, 1, "09/03", "now")),
        _system(
            18, "F", _SMP,
            _cat(448, 2, 4, 1, "09/03", "now"),
            _cat(64, 2, 4, 1, "03/05", "06/05"),
        ),
        # -- Type G: the first NUMA-era clusters (systems 19-21) ------------
        _system(
            19, "G", _NUMA,
            _cat(8, 128, 32, 4, "12/96", "09/02"),
            _cat(8, 128, 64, 4, "12/96", "09/02"),
        ),
        # System 20: node 0 is the late-production 80-processor node of
        # footnote 4; nodes 21-23 are its graphics/visualization nodes
        # (workload assignment happens in repro.synth.nodes).
        _system(
            20, "G", _NUMA,
            _cat(1, 80, 80, 0, "06/05", "now"),
            _cat(23, 128, 128, 12, "01/97", "now"),
            _cat(25, 128, 32, 12, "01/97", "11/05"),
        ),
        _system(
            21, "G", _NUMA,
            _cat(4, 128, 128, 4, "10/98", "12/04"),
            _cat(1, 32, 16, 4, "01/98", "12/04"),
        ),
        # -- Type H: a single large NUMA node (system 22) -------------------
        _system(22, "H", _NUMA, _cat(1, 256, 1024, 0, "11/04", "now")),
    )
}


def total_nodes() -> int:
    """Total nodes across all 22 systems (paper: 4750)."""
    return sum(config.node_count for config in LANL_SYSTEMS.values())


def total_processors() -> int:
    """Total processors across all 22 systems (paper: 24101)."""
    return sum(config.processor_count for config in LANL_SYSTEMS.values())
