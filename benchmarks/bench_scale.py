"""Scaled-inventory throughput benchmarks.

Not a paper artifact — stresses the generator at fleet sizes beyond
Table 1 via :func:`repro.synth.scenario.scale_inventory` and checks
that throughput (records/second) holds up as the node count grows.
The columnar-store path (``generate_store``) is benched separately
because it is the memory-bounded route for large scaled runs.
"""

from repro.synth import TraceGenerator
from repro.synth.scenario import scaled_lanl_systems

#: Bench a mid-size slice, not all 22 systems: scaled full-inventory
#: runs take tens of seconds and the per-record cost is what matters.
SCALE_SYSTEMS = [2, 13, 20]


def test_generate_scaled_4x(benchmark, bench_seed):
    systems = scaled_lanl_systems(4.0)

    def generate():
        return TraceGenerator(seed=bench_seed, systems=systems).generate(
            SCALE_SYSTEMS
        )

    trace = benchmark(generate)
    assert len(trace) > 10_000


def test_throughput_holds_at_scale(bench_seed):
    """Records/second at 4x the inventory stays within 3x of 1x cost."""
    import time

    def rate(factor):
        systems = scaled_lanl_systems(factor)
        generator = TraceGenerator(seed=bench_seed, systems=systems)
        start = time.perf_counter()
        trace = generator.generate(SCALE_SYSTEMS)
        return len(trace) / (time.perf_counter() - start)

    rate(1.0)  # warm-up: imports, first-call caches
    base = rate(1.0)
    scaled = rate(4.0)
    assert scaled > base / 3.0, (
        f"throughput collapsed at scale: {scaled:.0f} rec/s at 4x "
        f"vs {base:.0f} rec/s at 1x"
    )


def test_generate_store_matches_generate(benchmark, bench_seed, tmp_path):
    systems = scaled_lanl_systems(2.0)
    generator = TraceGenerator(seed=bench_seed, systems=systems)
    runs = iter(range(1_000_000))

    def write_store():
        root = tmp_path / f"store-{next(runs)}"
        return generator.generate_store(root, SCALE_SYSTEMS).row_count

    written = benchmark(write_store)
    assert written == len(generator.generate(SCALE_SYSTEMS))
