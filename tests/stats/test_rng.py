"""Unit tests for repro.stats.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.stats import ensure_rng, replication_seeds, spawn


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).random(5)
        b = ensure_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        out = ensure_rng(seq)
        assert isinstance(out, np.random.Generator)

    def test_numpy_integer_accepted(self):
        out = ensure_rng(np.int64(3))
        assert isinstance(out, np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawn:
    def test_count(self):
        children = spawn(ensure_rng(0), 4)
        assert len(children) == 4

    def test_children_independent_streams(self):
        children = spawn(ensure_rng(0), 2)
        a = children[0].random(10)
        b = children[1].random(10)
        assert not np.array_equal(a, b)

    def test_deterministic_given_parent_seed(self):
        a = [g.random() for g in spawn(ensure_rng(5), 3)]
        b = [g.random() for g in spawn(ensure_rng(5), 3)]
        assert a == b

    def test_zero_children(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)


class TestReplicationSeeds:
    """The shared per-replication seeding protocol (promoted from the
    figure harness in the api PR)."""

    def test_single_replication_is_identity(self):
        # R = 1 must pass the seed through untouched: the replicated
        # path consumes exactly the stream the unreplicated one did.
        assert replication_seeds(7, 1) == [7]
        assert replication_seeds(None, 1) == [None]

    def test_single_replication_preserves_generator_object(self):
        gen = ensure_rng(3)
        assert replication_seeds(gen, 1)[0] is gen

    def test_multi_replication_matches_spawn(self):
        seeds = replication_seeds(5, 3)
        reference = spawn(ensure_rng(5), 3)
        assert len(seeds) == 3
        assert [g.random() for g in seeds] == [
            g.random() for g in reference
        ]

    def test_substreams_differ(self):
        a, b = replication_seeds(0, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_deterministic_given_seed(self):
        a = [g.random() for g in replication_seeds(11, 4)]
        b = [g.random() for g in replication_seeds(11, 4)]
        assert a == b

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            replication_seeds(0, 0)
        with pytest.raises(ModelError):
            replication_seeds(0, -2)
