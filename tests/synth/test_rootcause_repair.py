"""Tests for the cause and repair sampling models."""

import numpy as np
import pytest

from repro.records.codes import DETAIL_VOCAB, NO_DETAIL
from repro.records.record import LOW_LEVEL_PARENT, RootCause
from repro.records.system import HardwareType
from repro.records.timeutils import SECONDS_PER_MONTH
from repro.synth.config import GeneratorConfig
from repro.synth.repair import RepairModel, _calibrate_body
from repro.synth.rootcause import CauseModel


def generator(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def resolve(model, n, age_seconds, seed):
    """``n`` (root cause, low-level cause) pairs resolved from one
    generator's mark uniforms, as the trace generator resolves them."""
    u_cause, u_lost, u_detail = generator(seed).random((3, n))
    cause_idx, detail_idx = model.resolve_batch(
        u_cause, u_lost, u_detail, np.full(n, age_seconds)
    )
    causes = [model.causes[index] for index in cause_idx]
    details = [
        None if code == NO_DETAIL else DETAIL_VOCAB[code]
        for code in model.resolve_detail_codes(cause_idx, detail_idx)
    ]
    return list(zip(causes, details))


class TestCauseModel:
    def test_detail_always_matches_parent(self):
        model = CauseModel(GeneratorConfig(), HardwareType.F)
        for cause, detail in resolve(model, 2000, age_seconds=1e8, seed=0):
            if detail is not None:
                assert LOW_LEVEL_PARENT[detail] is cause
            if cause is RootCause.UNKNOWN:
                assert detail is None

    def test_mixture_frequencies(self):
        config = GeneratorConfig()
        model = CauseModel(config, HardwareType.E)
        draws = [cause for cause, _ in resolve(model, 20_000, age_seconds=1e8, seed=1)]
        hardware_fraction = np.mean([c is RootCause.HARDWARE for c in draws])
        expected = config.cause_mix[HardwareType.E][RootCause.HARDWARE]
        assert hardware_fraction == pytest.approx(expected, abs=0.02)

    def test_unknown_era_decay(self):
        model = CauseModel(GeneratorConfig(), HardwareType.G)
        # > 90% unknowns at age 0; < 10% extra after ~2 years.
        assert model.unknown_probability(0.0) == pytest.approx(0.90)
        assert model.unknown_probability(24 * SECONDS_PER_MONTH) < 0.10

    def test_unknown_era_only_for_d_and_g(self):
        for hardware_type in (HardwareType.E, HardwareType.F, HardwareType.H):
            model = CauseModel(GeneratorConfig(), hardware_type)
            assert model.unknown_probability(0.0) == 0.0

    def test_unknown_era_floods_early_samples(self):
        model = CauseModel(GeneratorConfig(), HardwareType.G)
        early = [cause for cause, _ in resolve(model, 5000, age_seconds=0.0, seed=2)]
        unknown_fraction = np.mean([c is RootCause.UNKNOWN for c in early])
        assert unknown_fraction > 0.85


class TestRepairCalibration:
    def test_body_calibration_fixed_point(self):
        mu, sigma = _calibrate_body(342.0, 64.0, 0.01, 2.0, 1.0)
        # Median preserved exactly.
        assert np.exp(mu) == pytest.approx(64.0)
        # Mixture mean equals the target.
        body_mean = np.exp(mu + sigma**2 / 2)
        tail_factor = np.exp(2.0 + sigma * 1.0 + 0.5)
        mixture_mean = 0.99 * body_mean + 0.01 * body_mean * tail_factor
        assert mixture_mean == pytest.approx(342.0, rel=1e-6)

    def test_calibration_rejects_mean_below_median(self):
        with pytest.raises(ValueError):
            _calibrate_body(10.0, 50.0, 0.01, 2.0, 1.0)

    def test_mixture_mean_analytic_matches_target(self):
        config = GeneratorConfig()
        model = RepairModel(config)
        for cause, (mean, _median) in config.repair_mean_median_min.items():
            assert model.mixture_mean_minutes(cause) == pytest.approx(mean, rel=1e-6)

    def test_sampled_median_matches_table2(self):
        config = GeneratorConfig()
        model = RepairModel(config)
        gen = generator(3)
        minutes = [
            model.sample_minutes(gen, RootCause.HARDWARE, HardwareType.E)
            for _ in range(40_000)
        ]
        assert np.median(minutes) == pytest.approx(64.0, rel=0.05)

    def test_sampled_mean_near_table2(self):
        config = GeneratorConfig()
        model = RepairModel(config)
        gen = generator(4)
        minutes = [
            model.sample_minutes(gen, RootCause.ENVIRONMENT, HardwareType.E)
            for _ in range(40_000)
        ]
        # Environment has no heavy tail, so the sample mean is stable.
        assert np.mean(minutes) == pytest.approx(572.0, rel=0.05)

    def test_type_factor_scales(self):
        model = RepairModel(GeneratorConfig())
        gen_a = generator(5)
        gen_b = generator(5)
        e = [model.sample_minutes(gen_a, RootCause.HUMAN, HardwareType.E) for _ in range(5000)]
        f = [model.sample_minutes(gen_b, RootCause.HUMAN, HardwareType.F) for _ in range(5000)]
        # Same RNG stream: F is exactly the E draw times the factor.
        assert np.median(f) == pytest.approx(np.median(e) * 0.35, rel=0.02)

    def test_floor_applies(self):
        config = GeneratorConfig(repair_floor_min=30.0)
        model = RepairModel(config)
        gen = generator(6)
        minutes = [
            model.sample_minutes(gen, RootCause.SOFTWARE, HardwareType.F)
            for _ in range(2000)
        ]
        assert min(minutes) >= 30.0

    def test_seconds_is_sixty_times_minutes(self):
        model = RepairModel(GeneratorConfig())
        a = model.sample_minutes(generator(7), RootCause.HUMAN, HardwareType.E)
        b = model.sample_seconds(generator(7), RootCause.HUMAN, HardwareType.E)
        assert b == pytest.approx(60.0 * a)

    def test_heavy_tail_raises_c2(self):
        heavy = RepairModel(GeneratorConfig())
        light = RepairModel(GeneratorConfig(repair_tail_prob=0.0))
        gen_h = generator(8)
        gen_l = generator(8)
        heavy_sample = [
            heavy.sample_minutes(gen_h, RootCause.SOFTWARE, HardwareType.E)
            for _ in range(50_000)
        ]
        light_sample = [
            light.sample_minutes(gen_l, RootCause.SOFTWARE, HardwareType.E)
            for _ in range(50_000)
        ]

        def squared_cv(values):
            return np.var(values) / np.mean(values) ** 2

        assert squared_cv(heavy_sample) > 1.5 * squared_cv(light_sample)
