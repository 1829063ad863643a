"""Golden report bodies past :data:`~repro.stats.sketch.EXACT_LIMIT`.

Below the limit every sample keeps its values and the report reads
them; past it, Table 2, Figure 6 and Figure 7 read the moment sketches
and log-bucket histograms.  This freezes the bytes of the ``/v1/report``
body (``run_store_report(...).to_dict()``) with the limit patched to 0
(no sample kept) and to 100 (system 2's samples kept, the rest
summarized), for a scan at the default chunk size, chunks that split
every shard, and the in-memory report of the store's trace.  At each
limit all three bodies are one file: they are byte-identical to each
other, and any change to how a spilled sample summarizes shows up as a
diff here.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/report/test_past_limit_golden.py

then commit the rewritten files with a note on what moved and why.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.stats.sketch as sketch_module
from repro.report import run_paper_report, run_store_report
from repro.report.streaming import StoreReport
from repro.resilience import atomic_write_bytes
from repro.store import ColumnarStore
from repro.synth import TraceGenerator

GOLDEN_SEED = 7
GOLDEN_DIR = Path(__file__).parent / "golden"
#: System 2 (83 rows) stays under a limit of 100; 5, 19 and 20 do not.
SYSTEMS = (2, 5, 19, 20)
#: Small shards, so system 20's gap streams cross shard boundaries.
SHARD_ROWS = 1500

SCANS = {
    "default": {},
    "batch_rows=997": {"batch_rows": 997},
}


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("past-limit-golden") / "store"
    TraceGenerator(seed=GOLDEN_SEED).generate_store(
        root, SYSTEMS, shard_rows=SHARD_ROWS
    )
    return root


def _body(report: StoreReport) -> bytes:
    return (json.dumps(report.to_dict(), indent=2) + "\n").encode()


def _bodies(root) -> dict:
    bodies = {
        name: _body(run_store_report(ColumnarStore(root), **kwargs))
        for name, kwargs in SCANS.items()
    }
    bodies["trace"] = _body(
        StoreReport(run_paper_report(ColumnarStore(root).to_trace()))
    )
    return bodies


@pytest.mark.parametrize("limit", [0, 100])
def test_past_limit_bodies_match_golden(store_root, monkeypatch, limit):
    monkeypatch.setattr(sketch_module, "EXACT_LIMIT", limit)
    bodies = _bodies(store_root)
    golden = GOLDEN_DIR / f"report_limit{limit}_seed{GOLDEN_SEED}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        assert len(set(bodies.values())) == 1, "the scans disagree"
        atomic_write_bytes(golden, bodies["default"])
        pytest.skip(f"regenerated {golden}")
    assert golden.exists(), (
        f"missing golden file {golden}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = golden.read_bytes()
    approximate = [
        section["name"]
        for section in json.loads(expected)["sections"]
        if section["approximate"]
    ]
    assert approximate == ["fig6", "table2", "fig7"]
    for name, body in bodies.items():
        assert body == expected, (
            f"the {name} report at EXACT_LIMIT={limit} differs from "
            f"{golden}; if the change is intended, regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
