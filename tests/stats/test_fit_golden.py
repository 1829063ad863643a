"""Every fit the paper report makes on an x3 store, frozen to the bit.

Figure 7 ranks the four continuous candidates on the pooled repair
minutes, Figure 6 on each panel's interarrival gaps, and Figure 3(b)
the count candidates on the per-node failure counts.  This records
``float.hex`` of every field of every :class:`FitResult` those calls
return on the seed-7 x3 store, so a change that moves any of them by
one ulp shows here.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/stats/test_fit_golden.py

then commit the rewritten file with a note on what moved and why.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.outofcore import PaperAccumulator, scan_store
from repro.resilience import atomic_write_bytes
from repro.stats.distributions import Exponential, Gamma, LogNormal, Weibull
from repro.stats.fitting import fit_all, fit_all_discrete
from repro.store import ColumnarStore
from repro.synth import TraceGenerator
from repro.synth.scenario import scaled_lanl_systems

GOLDEN_SEED = 7
GOLDEN = Path(__file__).parent / "golden" / f"fits_x3_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def accumulator(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit-golden") / "store"
    TraceGenerator(seed=GOLDEN_SEED, systems=scaled_lanl_systems(3)).generate_store(
        root
    )
    folded, _ = scan_store(ColumnarStore(root), PaperAccumulator)
    return folded


def _record(fits) -> list:
    return [
        {
            "name": fit.name,
            "parameters": {
                field.name: float(getattr(fit.distribution, field.name)).hex()
                for field in dataclasses.fields(fit.distribution)
            },
            "nll": float(fit.nll).hex(),
            "aic": float(fit.aic).hex(),
            "bic": float(fit.bic).hex(),
            "ks": float(fit.ks).hex(),
            "n": fit.n,
        }
        for fit in fits
    ]


def _report_fits(accumulator) -> dict:
    repairs = accumulator.repairs
    fits = {
        "fig7": fit_all(
            repairs.values, zero_policy="clamp", epsilon=repairs.clamp_epsilon
        )
    }
    for panel, _label, segment in accumulator.interarrival_segments():
        gaps = segment.gaps()
        fits[f"fig6{panel}"] = fit_all(
            gaps.values, zero_policy="clamp", epsilon=gaps.clamp_epsilon
        )
    counts = accumulator.node_count_study().counts
    fits["fig3b"] = fit_all_discrete(np.array(counts, dtype=float))
    return {name: _record(ranked) for name, ranked in fits.items()}


def test_report_fits_match_golden(accumulator):
    body = (json.dumps(_report_fits(accumulator), indent=2) + "\n").encode()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        atomic_write_bytes(GOLDEN, body)
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.exists(), (
        f"missing golden file {GOLDEN}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert body == GOLDEN.read_bytes(), (
        f"a fit differs from {GOLDEN}; if the change is intended, "
        "regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_ks_evaluates_the_cdf_at_under_a_tenth_of_the_points(
    accumulator, monkeypatch
):
    """On the 81k pooled repairs, each candidate's KS statistic
    evaluates its CDF at fewer than a tenth of the sample points."""
    points = {}
    for family in (Exponential, Weibull, Gamma, LogNormal):

        def counting(self, x, cdf=family.cdf):
            points[self.name] = points.get(self.name, 0) + np.size(x)
            return cdf(self, x)

        monkeypatch.setattr(family, "cdf", counting)
    repairs = accumulator.repairs
    fits = fit_all(
        repairs.values, zero_policy="clamp", epsilon=repairs.clamp_epsilon
    )
    assert repairs.count > 80_000
    assert sorted(points) == sorted(fit.name for fit in fits)
    for name, count in points.items():
        assert 0 < count < repairs.count / 10, (name, count)
