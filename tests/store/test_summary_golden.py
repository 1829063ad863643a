"""Golden store summaries: the bytes of ``summarize_store(...).to_dict()``.

``/v1/summary``, ``/v1/analyze``, ``repro store analyze --json`` and
the chaos campaign all answer with this dict, so its bytes are frozen
under ``tests/store/golden/`` for one store written in one pass (the
LANL inventory at seed 41): unfiltered, one system, a three-month
window, a window no row falls in, and a degraded read that skips a
shard whose column file is gone.  Floats serialize by ``repr``, so a
summation-order change that moves a last ulp shows up here.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/store/test_summary_golden.py

then commit the rewritten files with a note on what moved and why.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.records.timeutils import from_datetime
from repro.resilience import atomic_write_bytes
from repro.store import ColumnarStore, Predicate, summarize_store
from repro.synth import TraceGenerator

GOLDEN_SEED = 41
GOLDEN_DIR = Path(__file__).parent / "golden"

#: The column file the degraded case deletes (system 7's only shard).
DAMAGED_COLUMN = "00006-end_time.npy"

_NO_ROWS_AT = from_datetime(dt.datetime(2001, 1, 1))

CASES = {
    "all": None,
    "system20": Predicate.build(systems=[20]),
    "window": Predicate.build(
        t_min=from_datetime(dt.datetime(2003, 1, 1)),
        t_max=from_datetime(dt.datetime(2003, 4, 1)),
    ),
    "no_rows": Predicate.build(t_min=_NO_ROWS_AT, t_max=_NO_ROWS_AT),
}


def _regen_requested() -> bool:
    return bool(os.environ.get("REPRO_REGEN_GOLDEN"))


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("summary-golden") / "store"
    TraceGenerator(seed=GOLDEN_SEED).generate_store(root)
    return root


def _check(name: str, summary) -> None:
    produced = (json.dumps(summary.to_dict(), indent=2) + "\n").encode()
    golden = GOLDEN_DIR / f"summary_{name}_seed{GOLDEN_SEED}.json"
    if _regen_requested():
        GOLDEN_DIR.mkdir(exist_ok=True)
        atomic_write_bytes(golden, produced)
        pytest.skip(f"regenerated {golden}")
    assert golden.exists(), (
        f"missing golden file {golden}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert produced == golden.read_bytes(), (
        f"the {name} summary differs from {golden}; if the change is "
        "intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_matches_golden(store_root, name):
    _check(name, summarize_store(ColumnarStore(store_root), CASES[name]))


def test_degraded_summary_matches_golden(store_root, tmp_path):
    damaged = tmp_path / "store"
    shutil.copytree(store_root, damaged)
    (damaged / "shards" / DAMAGED_COLUMN).unlink()
    summary = summarize_store(ColumnarStore(damaged, on_damage="skip"))
    assert summary.degraded is not None
    _check("skip", summary)
