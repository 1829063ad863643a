"""Performance benchmarks for the trace generator and core analyses.

Not a paper artifact — a performance regression guard.  The full
22-system, ~28k-record trace must generate in seconds (it is the
substrate of every other bench), and the hot analyses must stay
interactive.  The system-20 benches measure the same workload through
``generate()`` and the scalar reference engine of the test suite;
their ratio is the number ``benchmarks/generator_gate.py`` gates.
"""

from repro.analysis.repair import repair_fit_study
from repro.stats.fitting import fit_all
from repro.synth import TraceGenerator

from tests.synth.reference_engine import reference_trace


def test_generate_system20(benchmark, bench_seed):
    def generate():
        return TraceGenerator(seed=bench_seed).generate([20])

    trace = benchmark(generate)
    assert len(trace) > 3000


def test_generate_system20_scalar_engine(benchmark, bench_seed):
    def generate():
        return reference_trace(TraceGenerator(seed=bench_seed), [20])

    trace = benchmark(generate)
    assert len(trace) > 3000


def test_generate_small_cluster(benchmark, bench_seed):
    def generate():
        return TraceGenerator(seed=bench_seed).generate([13])

    trace = benchmark(generate)
    assert len(trace) > 100


def test_fit_all_on_repairs(benchmark, trace):
    minutes = trace.repair_minutes()

    def fit():
        return fit_all(minutes, zero_policy="clamp", epsilon=0.1)

    fits = benchmark(fit)
    assert fits[0].name == "lognormal"


def test_repair_fit_study_end_to_end(benchmark, trace):
    fits = benchmark(repair_fit_study, trace)
    assert len(fits) == 4
