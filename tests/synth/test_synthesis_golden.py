"""Golden per-column digests of the generator's output.

The report golden (``tests/report/golden/``) tolerates 1% drift in
counts and 2% in statistics, so it cannot see one misordered random
draw.  This file pins synthesis itself, byte for byte: the sha256 of
every column of three outputs.

* ``generate()`` at seed 1 over all 22 systems;
* ``generate()`` at seed 5 over systems 19 and 20, the burst systems;
* the column files of an x3 ``generate_store`` at seed 41, each
  column's shards hashed in manifest order.

To regenerate after an intentional change to the generator's output::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/synth/test_synthesis_golden.py

then commit the rewritten file with a note on what moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.records.columns import COLUMN_NAMES
from repro.resilience import atomic_write_text
from repro.store.manifest import SHARDS_DIR
from repro.store.reader import ColumnarStore
from repro.store.writer import column_file_name
from repro.synth import TraceGenerator
from repro.synth.scenario import scaled_lanl_systems

GOLDEN = Path(__file__).parent / "golden" / "synthesis_digests.json"


def _regen_requested() -> bool:
    return bool(os.environ.get("REPRO_REGEN_GOLDEN"))


def _trace_digests(trace) -> Dict[str, object]:
    columns = trace.columns
    return {
        "rows": len(trace),
        "columns": {
            name: hashlib.sha256(columns[name].tobytes()).hexdigest()
            for name in COLUMN_NAMES
        },
    }


def _store_digests(root: Path) -> Dict[str, object]:
    shards = [shard.name for shard in ColumnarStore(root).manifest.shards]
    digests = {}
    for name in COLUMN_NAMES:
        digest = hashlib.sha256()
        for shard in shards:
            path = root / SHARDS_DIR / column_file_name(shard, name)
            digest.update(np.load(path, allow_pickle=False).tobytes())
        digests[name] = digest.hexdigest()
    return {"shards": len(shards), "columns": digests}


def _case(name: str, tmp_path: Path) -> Dict[str, object]:
    if name == "generate-seed1-all":
        return _trace_digests(TraceGenerator(seed=1).generate())
    if name == "generate-seed5-bursts":
        return _trace_digests(TraceGenerator(seed=5).generate([19, 20]))
    root = tmp_path / "store"
    TraceGenerator(seed=41, systems=scaled_lanl_systems(3)).generate_store(root)
    return _store_digests(root)


CASES = ("generate-seed1-all", "generate-seed5-bursts", "store-x3-seed41")


@pytest.mark.parametrize("case", CASES)
def test_synthesis_matches_golden(case, tmp_path):
    produced = _case(case, tmp_path)
    golden = (
        json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    )
    if _regen_requested():
        golden[case] = produced
        GOLDEN.parent.mkdir(exist_ok=True)
        atomic_write_text(GOLDEN, json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {case} in {GOLDEN}")
    assert case in golden, (
        f"no {case} entry in {GOLDEN}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert produced == golden[case], (
        f"synthesis output for {case} differs from {GOLDEN}; if the change "
        "is intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )
