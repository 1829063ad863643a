"""Tests for repro.simulate.rng."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simulate.rng import RngStream, derive_seed, pcg64_states

# Labels as callers could write them: empty, the path separator itself,
# and non-ASCII text.
LABELS = st.one_of(st.sampled_from(["", "/", "nœud", "節点"]), st.text(max_size=12))
LABEL_PATHS = st.lists(
    st.lists(LABELS, min_size=1, max_size=5).map(tuple), min_size=1, max_size=8
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_differs_by_label(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_path_not_flattened(self):
        # ("ab", "c") must differ from ("a", "bc"): the separator matters.
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_negative_root_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "a")

    def test_range(self):
        seed = derive_seed(12345, "x", "y", "z")
        assert 0 <= seed < 2**64

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_stable_under_hypothesis(self, root, label):
        assert derive_seed(root, label) == derive_seed(root, label)


class TestRngStream:
    def test_child_reproducible(self):
        a = RngStream(7).child("system", "3")
        b = RngStream(7).child("system", "3")
        assert a.seed == b.seed
        assert a.generator.random() == b.generator.random()

    def test_children_independent(self):
        root = RngStream(7)
        values = {root.child("node", str(i)).generator.random() for i in range(50)}
        assert len(values) == 50  # no collisions among 50 children

    def test_child_requires_label(self):
        with pytest.raises(ValueError):
            RngStream(0).child()

    def test_path_accumulates(self):
        stream = RngStream(0).child("a").child("b", "c")
        assert stream.path == ("a", "b", "c")

    def test_nested_equals_flat(self):
        nested = RngStream(9).child("a").child("b")
        flat = RngStream(9).child("a", "b")
        assert nested.seed == flat.seed

    def test_sibling_consumption_isolated(self):
        # Drawing from one child must not affect another child's draws.
        root = RngStream(11)
        first = root.child("x")
        _ = [first.random() for _ in range(100)]
        fresh = RngStream(11).child("y")
        used = root.child("y")
        assert fresh.generator.random() == used.generator.random()

    def test_convenience_draws_in_range(self):
        stream = RngStream(3)
        assert 0 <= stream.random() < 1
        assert 2 <= stream.uniform(2, 5) < 5
        assert stream.exponential(10.0) >= 0
        assert stream.weibull(0.7, 100.0) >= 0
        assert stream.lognormal(0.0, 1.0) > 0

    def test_choice_index(self):
        stream = RngStream(4)
        probabilities = np.array([0.0, 1.0, 0.0])
        assert stream.choice_index(probabilities) == 1

    def test_generator_cached(self):
        stream = RngStream(5)
        assert stream.generator is stream.generator

    def test_negative_root_rejected_like_derive_seed(self):
        with pytest.raises(ValueError) as derived:
            derive_seed(-1, "a")
        with pytest.raises(ValueError) as constructed:
            RngStream(-1)
        assert str(constructed.value) == str(derived.value)


class TestBulkSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_raw_seed_matches_numpy(self, seed):
        # One and two 32-bit entropy words, and the edges between them.
        assert pcg64_states([seed]) == [np.random.PCG64(seed).state]

    def test_no_seeds(self):
        assert pcg64_states([]) == []

    @given(st.integers(min_value=0, max_value=2**66), LABEL_PATHS)
    def test_states_match_numpy_seeding(self, root, paths):
        expected = [np.random.PCG64(derive_seed(root, *path)).state for path in paths]
        assert pcg64_states([derive_seed(root, *path) for path in paths]) == expected
        streams = RngStream(root).spawn_generators(paths)
        assert [stream.bit_generator.state for stream in streams] == expected

    def test_child_path_is_prefixed(self):
        child = RngStream(3).child("system", "7")
        (stream,) = child.spawn_generators([("node", "1")])
        expected = RngStream(3).spawn_generator("system", "7", "node", "1")
        assert stream.random(8).tolist() == expected.random(8).tolist()

    def test_repointed_stream_matches_fresh_generator(self):
        root = RngStream(17)
        paths = [("node", "1", "marks"), ("node", "2", "marks")]
        streams = root.spawn_generators(paths)
        first = next(streams)
        first.random(dtype=np.float32)  # leaves half of a 64-bit draw unused
        assert first.bit_generator.state["has_uint32"] == 1
        reused = next(streams)
        fresh = root.spawn_generator(*paths[1])
        # A 32-bit draw would take a stale half word first.
        assert (
            reused.random(3, dtype=np.float32).tolist()
            == fresh.random(3, dtype=np.float32).tolist()
        )
        assert reused.random(5).tolist() == fresh.random(5).tolist()
        assert reused.weibull(0.7, 5).tolist() == fresh.weibull(0.7, 5).tolist()
        assert (
            reused.standard_normal(5).tolist() == fresh.standard_normal(5).tolist()
        )

    def test_empty_label_path_rejected(self):
        with pytest.raises(ValueError, match="at least one label"):
            RngStream(0).spawn_generators([("a",), ()])
