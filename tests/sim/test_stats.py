"""Unit tests for breakdowns and running statistics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (Block, Breakdown, RunningStats, geometric_mean)


class TestBreakdown:
    def test_starts_empty(self):
        assert Breakdown().total() == 0.0

    def test_add_and_total(self):
        bd = Breakdown()
        bd.add(Block.USER, 10)
        bd.add(Block.KERNEL, 5)
        assert bd.total() == 15

    def test_total_excluding_idle(self):
        bd = Breakdown()
        bd.add(Block.USER, 10)
        bd.add(Block.IDLE, 90)
        assert bd.total() == 100
        assert bd.total(include_idle=False) == 10

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Breakdown().add(Block.USER, -1)

    def test_int_block_accrues_under_its_enum_member(self):
        bd = Breakdown()
        bd.add(4, 1.0)
        assert bd.ns[Block.KERNEL] == 1.0
        assert all(type(block) is Block for block in bd.ns)

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError):
            Breakdown().add(99, 1.0)

    def test_merge(self):
        a, b = Breakdown(), Breakdown()
        a.add(Block.USER, 1)
        b.add(Block.USER, 2)
        b.add(Block.SCHED, 3)
        a.merge(b)
        assert a.ns[Block.USER] == 3
        assert a.ns[Block.SCHED] == 3

    def test_by_mode_classification(self):
        bd = Breakdown()
        bd.add(Block.USER, 1)
        for block in (Block.SYSCALL, Block.TRAMPOLINE, Block.KERNEL,
                      Block.SCHED, Block.PTSW):
            bd.add(block, 2)
        bd.add(Block.IDLE, 7)
        modes = bd.by_mode()
        assert modes == {"user": 1, "kernel": 10, "idle": 7}

    def test_fractions_sum_to_one(self):
        bd = Breakdown()
        bd.add(Block.USER, 3)
        bd.add(Block.KERNEL, 7)
        assert math.isclose(sum(bd.fractions().values()), 1.0)

    def test_fractions_of_empty(self):
        assert all(v == 0 for v in Breakdown().fractions().values())

    def test_scaled(self):
        bd = Breakdown()
        bd.add(Block.USER, 4)
        half = bd.scaled(0.5)
        assert half.ns[Block.USER] == 2
        assert bd.ns[Block.USER] == 4  # original untouched

    def test_copy_is_independent(self):
        bd = Breakdown()
        bd.add(Block.USER, 4)
        dup = bd.copy()
        dup.add(Block.USER, 1)
        assert bd.ns[Block.USER] == 4


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.mean == 0
        assert stats.variance == 0

    def test_mean_and_stddev(self):
        stats = RunningStats()
        stats.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert math.isclose(stats.mean, 5.0)
        assert math.isclose(stats.stddev, math.sqrt(32 / 7))

    def test_min_max(self):
        stats = RunningStats()
        stats.extend([3, 1, 4, 1, 5])
        assert stats.minimum == 1
        assert stats.maximum == 5

    def test_relative_stddev(self):
        stats = RunningStats()
        stats.extend([100.0, 100.0, 100.0])
        assert stats.relative_stddev() == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=200))
    def test_matches_two_pass_formulas(self, values):
        stats = RunningStats()
        stats.extend(values)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert math.isclose(stats.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(stats.variance, var, rel_tol=1e-6, abs_tol=1e-3)


class TestGeometricMean:
    def test_basic(self):
        assert math.isclose(geometric_mean([2, 8]), 4.0)

    def test_single(self):
        assert geometric_mean([7]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                    max_size=50))
    def test_bounded_by_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9
