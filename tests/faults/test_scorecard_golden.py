"""Golden robustness scorecards for the chaos-campaign presets.

The scorecard is a pure function of ``(preset, seed)``, so the bytes
``run_campaign`` writes for ``smoke`` and ``full`` at seed 7 are frozen
under ``tests/faults/golden/``.  The determinism test in
``test_campaign.py`` only compares two runs of the same code; this one
catches a change that flips a verdict, renames an invariant or reorders
the checks identically in both runs.

To regenerate after an intentional change to a scenario or invariant::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/faults/test_scorecard_golden.py

then commit the rewritten files with a note on what moved and why.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.faults.campaign import SCORECARD_NAME, run_campaign
from repro.resilience import atomic_write_bytes

GOLDEN_SEED = 7
GOLDEN_DIR = Path(__file__).parent / "golden"


def _regen_requested() -> bool:
    return bool(os.environ.get("REPRO_REGEN_GOLDEN"))


@pytest.mark.parametrize("preset", ["smoke", "full"])
def test_scorecard_matches_golden(preset, tmp_path):
    run_campaign(preset, seed=GOLDEN_SEED, root=tmp_path)
    produced = (tmp_path / SCORECARD_NAME).read_bytes()
    golden = GOLDEN_DIR / f"scorecard_{preset}_seed{GOLDEN_SEED}.json"
    if _regen_requested():
        GOLDEN_DIR.mkdir(exist_ok=True)
        atomic_write_bytes(golden, produced)
        pytest.skip(f"regenerated {golden}")
    assert golden.exists(), (
        f"missing golden file {golden}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert produced == golden.read_bytes(), (
        f"the {preset} scorecard at seed {GOLDEN_SEED} differs from {golden}; "
        "if the change is intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )
