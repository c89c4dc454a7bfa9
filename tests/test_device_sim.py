"""Tests for the shared-DRAM device simulator and the interval channel."""

import bisect
import random

import pytest

from repro.cereal import CerealAccelerator, DeviceSimulator
from repro.common.config import CerealConfig
from repro.common.errors import SimulationError
from repro.formats import graphs_equivalent
from repro.jvm import Heap
from repro.memory.dram import DRAMModel, _IntervalChannel
from tests.test_serializers import build_tree, make_registry


class TestIntervalChannel:
    def test_empty_channel_starts_at_issue(self):
        channel = _IntervalChannel()
        assert channel.schedule(100.0, 5.0) == 100.0

    def test_back_to_back_queues(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)
        assert channel.schedule(0.0, 10.0) == 10.0

    def test_out_of_order_fills_gap(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(50.0, 10.0)  # [50, 60)
        # A later-issued access with an earlier timestamp fits the gap.
        assert channel.schedule(20.0, 10.0) == 20.0

    def test_gap_too_small_skipped(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(15.0, 10.0)  # [15, 25)
        # A 10-unit access cannot fit in the 5-unit gap [10, 15).
        assert channel.schedule(5.0, 10.0) == 25.0

    def test_issue_inside_busy_interval(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 20.0)  # [0, 20)
        assert channel.schedule(5.0, 5.0) == 20.0

    def test_many_insertions_remain_sorted(self):
        channel = _IntervalChannel()
        starts = [channel.schedule(t, 1.0) for t in (50, 10, 30, 10, 50, 0)]
        assert all(s >= t for s, t in zip(starts, (50, 10, 30, 10, 50, 0)))
        assert channel._starts == sorted(channel._starts)
        assert channel._ends == sorted(channel._ends)
        _assert_disjoint_runs(channel)
        # [0,1) [10,12) [30,31) [50,52): the abutting pairs were merged.
        assert list(zip(channel._starts, channel._ends)) == [
            (0, 1.0), (10, 12.0), (30, 31.0), (50, 52.0)
        ]

    def test_abutting_intervals_coalesce(self):
        channel = _IntervalChannel()
        for _ in range(100):
            channel.schedule(0.0, 2.5)
        assert (channel._starts, channel._ends) == ([0.0], [250.0])

    def test_gap_fill_joins_both_neighbours(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(20.0, 10.0)  # [20, 30)
        assert channel.schedule(10.0, 10.0) == 10.0  # exactly fills the gap
        assert (channel._starts, channel._ends) == ([0.0], [30.0])


class _OracleIntervalChannel:
    """The per-access first-fit schedule the coalesced channel replaced.

    Kept verbatim: every reserved interval is stored on its own, however
    many of them abut, and the forward scan walks them one by one.
    """

    def __init__(self) -> None:
        self._starts = []
        self._intervals = []

    def schedule(self, issue_ns: float, occupancy_ns: float) -> float:
        """Reserve ``occupancy_ns`` at/after ``issue_ns``; returns start."""
        candidate = issue_ns
        index = bisect.bisect_left(self._starts, candidate)
        # The previous interval may still cover the candidate time.
        if index > 0 and self._intervals[index - 1][1] > candidate:
            candidate = self._intervals[index - 1][1]
        while index < len(self._intervals):
            start, end = self._intervals[index]
            if start - candidate >= occupancy_ns:
                break
            candidate = max(candidate, end)
            index += 1
        self._starts.insert(index, candidate)
        self._intervals.insert(index, (candidate, candidate + occupancy_ns))
        return candidate


def _assert_disjoint_runs(channel: _IntervalChannel) -> None:
    starts, ends = channel._starts, channel._ends
    assert len(starts) == len(ends)
    for start, end in zip(starts, ends):
        assert start < end
    for end, next_start in zip(ends, starts[1:]):
        assert end < next_start  # disjoint, and no two runs abut


def _merged(intervals):
    """Union of sorted intervals, merging any that touch."""
    runs = []
    for start, end in intervals:
        if runs and start <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], end)
        else:
            runs.append([start, end])
    return [tuple(run) for run in runs]


# Channel occupancy of one 32 B MAI block and of one 64 B line.
_BLOCK_NS = DRAMModel().occupancy_ns(32)
_LINE_NS = DRAMModel().occupancy_ns(64)


def _random_requests(rng: random.Random, count: int):
    """Issue times that repeat, abut earlier intervals, and land inside
    busy runs, with device-realistic and arbitrary occupancies."""
    issued = []  # (start, end) of earlier reservations
    for _ in range(count):
        occupancy = rng.choice(
            (_BLOCK_NS, _LINE_NS, 1.0, 2.5, rng.uniform(0.1, 30.0))
        )
        kind = rng.random()
        if not issued or kind < 0.2:
            issue = rng.uniform(0.0, 2000.0)
        elif kind < 0.4:
            issue = rng.choice(issued)[0]  # repeated issue time
        elif kind < 0.6:
            issue = rng.choice(issued)[1]  # exact abutment
        elif kind < 0.8:
            start, end = rng.choice(issued)
            issue = rng.uniform(start, end)  # inside a busy run
        else:
            issue = float(rng.randrange(0, 400, 5))  # coarse grid: collisions
        yield issue, occupancy, issued


class TestIntervalScheduleOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_start_times_as_oracle(self, seed):
        rng = random.Random(seed)
        channel = _IntervalChannel()
        oracle = _OracleIntervalChannel()
        for issue, occupancy, issued in _random_requests(rng, 1500):
            start = channel.schedule(issue, occupancy)
            assert start == oracle.schedule(issue, occupancy)
            issued.append((start, start + occupancy))
        _assert_disjoint_runs(channel)
        # The coalesced runs cover exactly the oracle's busy time.
        assert list(zip(channel._starts, channel._ends)) == _merged(
            oracle._intervals
        )
        assert len(channel._starts) < len(oracle._intervals)

    def test_device_shaped_stream_matches_oracle(self):
        # Eight requesters walking their own streams at staggered clocks:
        # the device simulator's pattern of out-of-order issue.
        rng = random.Random(99)
        channel = _IntervalChannel()
        oracle = _OracleIntervalChannel()
        clocks = [rng.uniform(0.0, 50.0) for _ in range(8)]
        for _ in range(4000):
            unit = rng.randrange(8)
            occupancy = rng.choice((_BLOCK_NS, _LINE_NS))
            start = channel.schedule(clocks[unit], occupancy)
            assert start == oracle.schedule(clocks[unit], occupancy)
            clocks[unit] = start + rng.choice((0.0, occupancy, 1.0, 40.0))
        _assert_disjoint_runs(channel)
        assert list(zip(channel._starts, channel._ends)) == _merged(
            oracle._intervals
        )


class TestOutOfOrderDRAM:
    def test_early_issue_not_queued_behind_late(self):
        in_order = DRAMModel()
        out_of_order = DRAMModel(out_of_order=True)
        for dram in (in_order, out_of_order):
            dram.access(10_000.0, 0, 64, is_write=False)  # late traffic
        blocked = in_order.access(0.0, 0, 64, is_write=False)
        unblocked = out_of_order.access(0.0, 0, 64, is_write=False)
        assert blocked > 10_000.0
        assert unblocked < 100.0

    def test_reset_clears_intervals(self):
        dram = DRAMModel(out_of_order=True)
        dram.access(0.0, 0, 64, is_write=False)
        dram.reset()
        assert dram.access(0.0, 0, 64, is_write=False) < 100.0


@pytest.fixture
def device():
    registry = make_registry()
    accelerator = CerealAccelerator()
    for klass in registry:
        accelerator.register_class(klass)
    heap = Heap(registry=registry)
    return registry, accelerator, heap, DeviceSimulator(accelerator)


class TestDeviceSimulator:
    def test_empty_batch(self, device):
        _, _, _, simulator = device
        result = simulator.run([])
        assert result.wall_time_ns == 0.0
        assert result.operations == []

    def test_pool_overlap_near_single_op_time(self, device):
        """Eight independent serializations on eight SUs ~ one op's time."""
        _, accelerator, heap, simulator = device
        roots = [build_tree(heap, depth=7) for _ in range(8)]
        _, single, _ = accelerator.serialize(build_tree(heap, depth=7))
        batch = simulator.run([("serialize", root) for root in roots])
        assert batch.wall_time_ns < 1.8 * single.elapsed_ns

    def test_oversubscription_queues_on_units(self, device):
        _, accelerator, heap, simulator = device
        roots = [build_tree(heap, depth=6) for _ in range(16)]
        batch_8 = simulator.run([("serialize", root) for root in roots[:8]])
        batch_16 = simulator.run([("serialize", root) for root in roots])
        assert batch_16.wall_time_ns > 1.5 * batch_8.wall_time_ns

    def test_device_bandwidth_scales_with_busy_units(self, device):
        _, _, heap, simulator = device
        one = simulator.run([("serialize", build_tree(heap, depth=7))])
        eight = simulator.run(
            [("serialize", build_tree(heap, depth=7)) for _ in range(8)]
        )
        assert eight.bandwidth_utilization > 4 * one.bandwidth_utilization

    def test_deserialize_wave_functional_and_fast(self, device):
        registry, _, heap, simulator = device
        roots = [build_tree(heap, depth=5) for _ in range(4)]
        ser = simulator.run([("serialize", root) for root in roots])
        receivers = [Heap(registry=registry) for _ in range(4)]
        deser = simulator.run(
            [
                ("deserialize", op.stream, receiver)
                for op, receiver in zip(ser.operations, receivers)
            ]
        )
        for root, op in zip(roots, deser.operations):
            assert graphs_equivalent(root, op.root)
        assert deser.wall_time_ns > 0

    def test_mixed_batch_uses_both_pools(self, device):
        registry, _, heap, simulator = device
        root = build_tree(heap, depth=5)
        ser = simulator.run([("serialize", root)])
        stream = ser.operations[0].stream
        mixed = simulator.run(
            [
                ("serialize", build_tree(heap, depth=5)),
                ("deserialize", stream, Heap(registry=registry)),
            ]
        )
        kinds = {op.kind for op in mixed.operations}
        assert kinds == {"serialize", "deserialize"}
        # Both pools start immediately: neither op waits for the other.
        assert all(op.start_ns == 0.0 for op in mixed.operations)

    def test_unknown_request_kind_rejected(self, device):
        _, _, heap, simulator = device
        with pytest.raises(SimulationError):
            simulator.run([("compress", build_tree(heap, depth=2))])

    def test_small_pool_config_respected(self):
        registry = make_registry()
        accelerator = CerealAccelerator(CerealConfig(num_serializer_units=2))
        for klass in registry:
            accelerator.register_class(klass)
        heap = Heap(registry=registry)
        simulator = DeviceSimulator(accelerator)
        roots = [build_tree(heap, depth=5) for _ in range(4)]
        result = simulator.run([("serialize", root) for root in roots])
        assert {op.unit_index for op in result.operations} == {0, 1}


def _oversubscribed_run(device, num_serialize=20, num_deserialize=8):
    """A run with more requests than units, with uneven op sizes."""
    registry, _, heap, simulator = device
    depths = [3 + (i % 5) for i in range(num_serialize)]
    roots = [build_tree(heap, depth=depth) for depth in depths]
    ser = simulator.run([("serialize", root) for root in roots])
    requests = [("serialize", root) for root in roots]
    requests.extend(
        ("deserialize", op.stream, Heap(registry=registry))
        for op in ser.operations[:num_deserialize]
    )
    return simulator, simulator.run(requests)


class TestSchedulingInvariants:
    """Invariants of the earliest-free-unit dispatch policy.

    ``DeviceRunResult.unit_timeline()`` groups completed operations per
    physical unit in dispatch order; the policy's contract is checked by
    replaying dispatch over the recorded start/finish times.
    """

    def test_no_overlap_on_any_unit(self, device):
        _, result = _oversubscribed_run(device)
        for (kind, unit), ops in result.unit_timeline().items():
            for earlier, later in zip(ops, ops[1:]):
                assert later.start_ns >= earlier.finish_ns, (
                    f"{kind} unit {unit}: op starting at {later.start_ns} "
                    f"overlaps op finishing at {earlier.finish_ns}"
                )

    def test_finish_times_monotone_per_unit(self, device):
        _, result = _oversubscribed_run(device)
        for (kind, unit), ops in result.unit_timeline().items():
            finishes = [op.finish_ns for op in ops]
            assert finishes == sorted(finishes), (
                f"{kind} unit {unit}: finish times {finishes} not monotone"
            )
            for op in ops:
                assert op.finish_ns > op.start_ns

    def test_dispatch_picks_earliest_free_unit(self, device):
        """Greedy replay: each op must land on the unit that freed first.

        Ties break to the lowest unit index, matching ``min`` over the
        free-time list.
        """
        simulator, result = _oversubscribed_run(device)
        pools = {
            "serialize": [0.0] * simulator.config.num_serializer_units,
            "deserialize": [0.0] * simulator.config.num_deserializer_units,
        }
        for op in result.operations:
            free = pools[op.kind]
            expected_unit = min(range(len(free)), key=free.__getitem__)
            assert op.unit_index == expected_unit
            assert op.start_ns == free[expected_unit]
            free[expected_unit] = op.finish_ns

    def test_pools_are_independent(self, device):
        """Serialize load never delays deserialize dispatch (own pool)."""
        _, result = _oversubscribed_run(device)
        du_count = len(
            [op for op in result.operations if op.kind == "deserialize"]
        )
        du_pool = {
            unit
            for (kind, unit) in result.unit_timeline()
            if kind == "deserialize"
        }
        assert du_pool == set(range(min(du_count, 8)))
        first_deser = next(
            op for op in result.operations if op.kind == "deserialize"
        )
        assert first_deser.start_ns == 0.0
