"""Tests for the shared-DRAM device simulator and the interval channel."""

import bisect
import random
import struct
from typing import List

import pytest

from repro.cereal import CerealAccelerator, DeviceSimulator
from repro.cereal.device_sim import DeviceOperation, DeviceRunResult
from repro.cereal.du import DeserializationUnit, DUWorkload
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import SerializationUnit
from repro.cereal.tlb import TLB
from repro.common.config import CerealConfig
from repro.common.errors import (
    FormatError,
    ResourceLimitError,
    SimulationError,
    TruncatedStreamError,
)
from repro.formats import CerealSerializer, SerializedStream, graphs_equivalent
from repro.formats import limits as limits_module
from repro.formats.limits import DEFAULT_LIMITS, DecodeLimits
from repro.jvm import Heap
from repro.memory import dram as dram_module
from repro.memory.dram import DRAMModel, _IntervalChannel
from tests.oracles import CerealOracle, dram_access
from tests.test_serializers import (
    build_mixed,
    build_primitive_array,
    build_reference_array,
    build_shared,
    build_tree,
    make_registry,
)
from tests.test_su_du_units import _oracle_su_run


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
        run_starts, run_ends = _flat(channel)
        assert run_starts == sorted(run_starts)
        assert run_ends == sorted(run_ends)
        _assert_disjoint_runs(channel)
        # [0,1) [10,12) [30,31) [50,52): the abutting pairs were merged.
        assert _runs(channel) == [(0, 1.0), (10, 12.0), (30, 31.0), (50, 52.0)]

    def test_abutting_intervals_coalesce(self):
        channel = _IntervalChannel()
        for _ in range(100):
            channel.schedule(0.0, 2.5)
        assert _flat(channel) == ([0.0], [250.0])

    def test_gap_fill_joins_both_neighbours(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(20.0, 10.0)  # [20, 30)
        assert channel.schedule(10.0, 10.0) == 10.0  # exactly fills the gap
        assert _flat(channel) == ([0.0], [30.0])


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


class _FlatIntervalChannel:
    """The coalesced schedule in two flat lists, before block storage.

    Kept verbatim as the oracle for the blocked :class:`_IntervalChannel`:
    the same first-fit and coalescing rules over one ``_starts``/``_ends``
    pair, where every insert or delete shifts the whole tail.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []

    def schedule(self, issue_ns: float, occupancy_ns: float) -> float:
        """Reserve ``occupancy_ns`` at/after ``issue_ns``; returns start."""
        starts = self._starts
        ends = self._ends
        candidate = issue_ns
        index = bisect.bisect_left(starts, candidate)
        # The previous run may still cover the candidate time.
        if index and ends[index - 1] > candidate:
            candidate = ends[index - 1]
        count = len(starts)
        # Runs are disjoint and apart, so the next run's end is always past
        # the candidate: stepping over a run moves the candidate to its end.
        while index < count and starts[index] - candidate < occupancy_ns:
            candidate = ends[index]
            index += 1
        finish = candidate + occupancy_ns
        joins_next = index < count and finish >= starts[index]
        if index and ends[index - 1] >= candidate:
            if joins_next:
                ends[index - 1] = ends[index]
                del starts[index]
                del ends[index]
            else:
                ends[index - 1] = finish
        elif joins_next:
            starts[index] = candidate
        else:
            starts.insert(index, candidate)
            ends.insert(index, finish)
        return candidate


def _flat(channel):
    """A channel's runs as one flat ``(starts, ends)`` pair of lists."""
    if isinstance(channel, _FlatIntervalChannel):
        return list(channel._starts), list(channel._ends)
    return (
        [start for block in channel._start_blocks for start in block],
        [end for block in channel._end_blocks for end in block],
    )


def _runs(channel):
    return list(zip(*_flat(channel)))


def _assert_blocks(channel: _IntervalChannel) -> None:
    """Block storage invariants: no empty block past an empty channel,
    no block over the cap, and each bound is its block's first start."""
    start_blocks, end_blocks = channel._start_blocks, channel._end_blocks
    assert len(start_blocks) == len(end_blocks) == len(channel._bounds) + 1
    for starts, ends in zip(start_blocks, end_blocks):
        assert len(starts) == len(ends) <= dram_module.BLOCK_RUNS
        assert starts or len(start_blocks) == 1
    assert channel._bounds == [starts[0] for starts in start_blocks[1:]]


def _assert_disjoint_runs(channel) -> None:
    if isinstance(channel, _IntervalChannel):
        _assert_blocks(channel)
    starts, ends = _flat(channel)
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


def _drive_device_stream(rng: random.Random, count: int, schedule,
                         start_at_zero: bool) -> None:
    """Eight requesters walking their own streams at staggered clocks:
    the device simulator's pattern of out-of-order issue."""
    clocks = [0.0 if start_at_zero else rng.uniform(0.0, 50.0) for _ in range(8)]
    for _ in range(count):
        unit = rng.randrange(8)
        occupancy = rng.choice((_BLOCK_NS, _LINE_NS))
        start = schedule(clocks[unit], occupancy)
        clocks[unit] = start + rng.choice((0.0, occupancy, 1.0, 40.0))


def _same_start(channel, oracle):
    """A schedule callback that asserts both channels pick the same start."""
    def schedule(issue, occupancy):
        start = channel.schedule(issue, occupancy)
        assert start == oracle.schedule(issue, occupancy)
        return start
    return schedule


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
        assert _runs(channel) == _merged(oracle._intervals)
        assert len(_flat(channel)[0]) < len(oracle._intervals)

    def test_device_shaped_stream_matches_oracle(self):
        rng = random.Random(99)
        channel = _IntervalChannel()
        oracle = _OracleIntervalChannel()
        _drive_device_stream(
            rng, 4000, _same_start(channel, oracle), start_at_zero=False
        )
        _assert_disjoint_runs(channel)
        assert _runs(channel) == _merged(oracle._intervals)


def _assert_matches_flat(channel, flat, issue, occupancy):
    start = channel.schedule(issue, occupancy)
    assert start == flat.schedule(issue, occupancy)
    assert _flat(channel) == _flat(flat)
    _assert_blocks(channel)
    return start


class TestBlockedScheduleOracle:
    """The blocked channel against the flat two-list schedule it replaced."""

    @pytest.mark.parametrize("block_runs", [2, 3, 4, dram_module.BLOCK_RUNS])
    @pytest.mark.parametrize("seed", range(75))
    def test_same_start_times_and_runs_as_flat(self, monkeypatch, block_runs, seed):
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", block_runs)
        rng = random.Random(f"blocked-{block_runs}-{seed}")
        channel = _IntervalChannel()
        flat = _FlatIntervalChannel()
        for issue, occupancy, issued in _random_requests(rng, 300):
            start = channel.schedule(issue, occupancy)
            assert start == flat.schedule(issue, occupancy)
            issued.append((start, start + occupancy))
        assert _flat(channel) == _flat(flat)
        _assert_disjoint_runs(channel)

    @pytest.mark.parametrize("block_runs", [2, 3, 4, dram_module.BLOCK_RUNS])
    def test_device_shaped_stream_matches_flat(self, monkeypatch, block_runs):
        # Eight units all starting at 0, as in one DeviceSimulator batch.
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", block_runs)
        rng = random.Random(block_runs)
        channel = _IntervalChannel()
        flat = _FlatIntervalChannel()
        _drive_device_stream(rng, 6000, _same_start(channel, flat), start_at_zero=True)
        assert _flat(channel) == _flat(flat)
        _assert_disjoint_runs(channel)
        assert len(channel._start_blocks) > 1  # the stream crossed blocks

    def test_overflowing_block_splits(self, monkeypatch):
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", 2)
        channel, flat = _IntervalChannel(), _FlatIntervalChannel()
        for issue in (0.0, 4.0, 8.0):
            _assert_matches_flat(channel, flat, issue, 1.0)
        assert channel._start_blocks == [[0.0], [4.0, 8.0]]
        assert channel._bounds == [4.0]

    def test_scan_crosses_blocks(self, monkeypatch):
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", 2)
        channel, flat = _IntervalChannel(), _FlatIntervalChannel()
        for issue in (0.0, 2.0, 4.0, 6.0, 8.0, 12.0):
            _assert_matches_flat(channel, flat, issue, 1.0)
        assert channel._start_blocks == [[0.0], [2.0], [4.0], [6.0], [8.0, 12.0]]
        # Only the gap [9, 12) fits 2 units: the scan crosses four blocks.
        assert _assert_matches_flat(channel, flat, 0.5, 2.0) == 9.0
        # No gap fits 1.5 units any more: the scan walks every block.
        assert _assert_matches_flat(channel, flat, 0.5, 1.5) == 13.0

    def test_merge_that_empties_a_block_drops_it(self, monkeypatch):
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", 2)
        channel, flat = _IntervalChannel(), _FlatIntervalChannel()
        for issue in (0.0, 4.0, 8.0, 12.0):
            _assert_matches_flat(channel, flat, issue, 1.0)
        assert channel._start_blocks == [[0.0], [4.0], [8.0, 12.0]]
        # [1, 4) joins the first block's run to the second block's only run.
        assert _assert_matches_flat(channel, flat, 1.0, 3.0) == 1.0
        assert channel._start_blocks == [[0.0], [8.0, 12.0]]
        assert channel._end_blocks == [[5.0], [9.0, 13.0]]
        assert channel._bounds == [8.0]

    def test_merge_across_blocks_keeps_nonempty_block(self, monkeypatch):
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", 2)
        channel, flat = _IntervalChannel(), _FlatIntervalChannel()
        for issue in (0.0, 4.0, 8.0):
            _assert_matches_flat(channel, flat, issue, 1.0)
        assert _assert_matches_flat(channel, flat, 1.0, 3.0) == 1.0
        assert channel._start_blocks == [[0.0], [8.0]]
        assert channel._bounds == [8.0]

    def test_insert_at_a_blocks_first_slot(self, monkeypatch):
        monkeypatch.setattr(dram_module, "BLOCK_RUNS", 2)
        channel, flat = _IntervalChannel(), _FlatIntervalChannel()
        for issue in (10.0, 20.0, 30.0):
            _assert_matches_flat(channel, flat, issue, 1.0)
        assert channel._start_blocks == [[10.0], [20.0, 30.0]]
        # Before every run: the first block's first slot.
        assert _assert_matches_flat(channel, flat, 0.0, 1.0) == 0.0
        assert channel._start_blocks == [[0.0, 10.0], [20.0, 30.0]]
        # Abutting the second block's first run from below moves its bound.
        assert _assert_matches_flat(channel, flat, 18.0, 2.0) == 18.0
        assert channel._start_blocks == [[0.0, 10.0], [18.0, 30.0]]
        assert channel._bounds == [18.0]
        # A new run between the blocks lands at the end of the first one
        # and splits it.
        assert _assert_matches_flat(channel, flat, 14.0, 1.0) == 14.0
        assert channel._start_blocks == [[0.0], [10.0, 14.0], [18.0, 30.0]]
        assert channel._bounds == [10.0, 18.0]


class TestOutOfOrderDRAM:
    def test_early_issue_not_queued_behind_late(self):
        in_order = DRAMModel()
        out_of_order = DRAMModel(out_of_order=True)
        for dram in (in_order, out_of_order):
            dram_access(dram, 10_000.0, 0, 64, is_write=False)  # late traffic
        blocked = dram_access(in_order, 0.0, 0, 64, is_write=False)
        unblocked = dram_access(out_of_order, 0.0, 0, 64, is_write=False)
        assert blocked > 10_000.0
        assert unblocked < 100.0

    def test_reset_clears_intervals(self):
        dram = DRAMModel(out_of_order=True)
        dram_access(dram, 0.0, 0, 64, is_write=False)
        dram.reset()
        assert dram_access(dram, 0.0, 0, 64, is_write=False) < 100.0


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


def unit_timeline(result):
    """Operations grouped per physical unit, in dispatch order.

    Keys are ``(kind, unit_index)``: serialize ops run on the SU pool and
    deserialize ops on the DU pool, so the same index under a different
    kind is a different piece of hardware.
    """
    timeline: dict = {}
    for op in result.operations:
        timeline.setdefault((op.kind, op.unit_index), []).append(op)
    return timeline


class TestSchedulingInvariants:
    """Invariants of the earliest-free-unit dispatch policy.

    :func:`unit_timeline` groups completed operations per physical unit in
    dispatch order; the policy's contract is checked by
    replaying dispatch over the recorded start/finish times.
    """

    def test_no_overlap_on_any_unit(self, device):
        _, result = _oversubscribed_run(device)
        for (kind, unit), ops in unit_timeline(result).items():
            for earlier, later in zip(ops, ops[1:]):
                assert later.start_ns >= earlier.finish_ns, (
                    f"{kind} unit {unit}: op starting at {later.start_ns} "
                    f"overlaps op finishing at {earlier.finish_ns}"
                )

    def test_finish_times_monotone_per_unit(self, device):
        _, result = _oversubscribed_run(device)
        for (kind, unit), ops in unit_timeline(result).items():
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
            for (kind, unit) in unit_timeline(result)
            if kind == "deserialize"
        }
        assert du_pool == set(range(min(du_count, 8)))
        first_deser = next(
            op for op in result.operations if op.kind == "deserialize"
        )
        assert first_deser.start_ns == 0.0


def _oracle_device_run(simulator, requests):
    """The per-request device run the decode-once run replaced.

    Kept verbatim: every serialize request encodes its root and walks it
    through the per-object SU oracle, and every deserialize request
    decodes its stream, unpacks both packed arrays and builds its DU
    workload, however many requests share an input.
    """
    if not requests:
        return DeviceRunResult(
            operations=[], wall_time_ns=0.0, dram_bytes=0,
            bandwidth_utilization=0.0,
        )
    dram = DRAMModel(simulator.dram_config, out_of_order=True)

    def make_mai() -> MemoryAccessInterface:
        tlb = TLB(
            entries=simulator.config.tlb_entries,
            page_bytes=simulator.config.page_bytes,
        )
        return MemoryAccessInterface(dram, simulator.config, tlb=tlb)

    su_free = [0.0] * simulator.config.num_serializer_units
    du_free = [0.0] * simulator.config.num_deserializer_units
    su_mais = [make_mai() for _ in su_free]
    du_mais = [make_mai() for _ in du_free]

    operations = []
    wall_time = 0.0
    for request in requests:
        kind = request[0]
        if kind == "serialize":
            _, root = request
            unit_index = min(range(len(su_free)), key=lambda i: su_free[i])
            start = su_free[unit_index]
            result = simulator.accelerator.codec.serialize(root)
            unit = SerializationUnit(
                su_mais[unit_index],
                simulator.accelerator.klass_pointer_table,
                simulator.config,
                unit_id=unit_index,
            )
            epoch = root.heap.next_serialization_epoch(
                simulator.config.header_counter_bits
            )
            su = _oracle_su_run(
                unit, root, start_ns=start, serialization_counter=epoch
            )
            su_free[unit_index] = su.finish_ns
            operations.append(
                DeviceOperation(
                    kind="serialize",
                    unit_index=unit_index,
                    start_ns=start,
                    finish_ns=su.finish_ns,
                    graph_bytes=result.stream.graph_bytes,
                    stream=result.stream,
                )
            )
            wall_time = max(wall_time, su.finish_ns)
        elif kind == "deserialize":
            _, stream, heap = request
            unit_index = min(range(len(du_free)), key=lambda i: du_free[i])
            start = du_free[unit_index]
            deser = simulator.accelerator.codec.deserialize(stream, heap)
            sections = CerealSerializer.decode_sections(stream)
            workload = DUWorkload.from_stream_sections(sections)
            unit = DeserializationUnit(
                du_mais[unit_index],
                simulator.accelerator.class_id_table,
                simulator.config,
                unit_id=unit_index,
            )
            du = unit.run(
                workload,
                destination_base=deser.root.address,
                start_ns=start,
            )
            du_free[unit_index] = du.finish_ns
            operations.append(
                DeviceOperation(
                    kind="deserialize",
                    unit_index=unit_index,
                    start_ns=start,
                    finish_ns=du.finish_ns,
                    graph_bytes=sections.graph_total_bytes,
                    root=deser.root,
                )
            )
            wall_time = max(wall_time, du.finish_ns)
        else:
            raise SimulationError(f"unknown device request kind {kind!r}")

    utilization = dram.stats.bandwidth_utilization(
        wall_time, simulator.dram_config
    )
    return DeviceRunResult(
        operations=operations,
        wall_time_ns=wall_time,
        dram_bytes=dram.stats.total_bytes,
        bandwidth_utilization=min(1.0, utilization),
    )


def _assert_same_run(run, oracle, run_heaps, oracle_heaps):
    """Field-for-field equality of two device runs and their receivers."""
    assert run.wall_time_ns == oracle.wall_time_ns
    assert run.dram_bytes == oracle.dram_bytes
    assert run.bandwidth_utilization == oracle.bandwidth_utilization
    assert len(run.operations) == len(oracle.operations)
    for op, want in zip(run.operations, oracle.operations):
        assert (op.kind, op.unit_index, op.start_ns, op.finish_ns,
                op.graph_bytes) == (want.kind, want.unit_index, want.start_ns,
                                    want.finish_ns, want.graph_bytes)
        if want.stream is None:
            assert op.stream is None
        else:
            assert op.stream == want.stream  # bytes, sections and counts
        if want.root is None:
            assert op.root is None
        else:
            assert op.root.address == want.root.address
            assert graphs_equivalent(op.root, want.root)
    for heap, want in zip(run_heaps, oracle_heaps):
        assert heap.used_bytes == want.used_bytes


def _baseline_stream(accelerator, root):
    baseline = CerealSerializer(accelerator.registration, use_packing=False)
    return baseline.serialize(root).stream


class TestDecodeOnceOracle:
    """The decode-once device run matches the per-request oracle."""

    def _compare(self, device, make_requests):
        """``make_requests(new_heap)`` builds one run's requests; receiver
        heaps come from ``new_heap`` so both runs rebuild at the same
        addresses."""
        registry, _, _, simulator = device
        heaps = {"run": [], "oracle": []}

        def heap_for(label):
            def new_heap():
                heap = Heap(registry=registry)
                heaps[label].append(heap)
                return heap
            return new_heap

        oracle = _oracle_device_run(simulator, make_requests(heap_for("oracle")))
        run = simulator.run(make_requests(heap_for("run")))
        _assert_same_run(run, oracle, heaps["run"], heaps["oracle"])
        return run

    def test_repeated_root_serialize_batch(self, device):
        _, _, heap, _ = device
        root = build_tree(heap, depth=5)
        run = self._compare(device, lambda _: [("serialize", root)] * 8)
        streams = [op.stream for op in run.operations]
        # Each operation owns its stream object.
        assert len({id(stream) for stream in streams}) == len(streams)

    def test_repeated_stream_deserialize_batch(self, device):
        _, accelerator, heap, _ = device
        stream = accelerator.serialize(build_tree(heap, depth=5))[0].stream
        self._compare(
            device,
            lambda new_heap: [
                ("deserialize", stream, new_heap()) for _ in range(8)
            ],
        )

    def test_distinct_and_repeated_inputs_interleaved(self, device):
        _, accelerator, heap, _ = device
        roots = [
            build_tree(heap, depth=4),
            build_shared(heap),
            build_reference_array(heap),  # null references
            build_mixed(heap),
            build_primitive_array(heap),
        ]
        streams = [accelerator.serialize(root)[0].stream for root in roots]
        # A second stream object with the same bytes shares one decode.
        twin = SerializedStream(
            format_name="cereal", data=bytes(streams[0].data)
        )

        inputs = streams + [twin]

        def make(new_heap):
            requests = []
            for index in range(14):
                requests.append(("serialize", roots[index % 3]))
                requests.append(
                    ("deserialize", inputs[index % len(inputs)], new_heap())
                )
            return requests

        self._compare(device, make)

    def test_baseline_format_streams_and_codec(self, device):
        _, accelerator, heap, _ = device
        roots = [build_tree(heap, depth=4), build_reference_array(heap)]
        streams = [_baseline_stream(accelerator, root) for root in roots]
        packed = accelerator.serialize(roots[0])[0].stream
        self._compare(
            device,
            lambda new_heap: [
                ("deserialize", streams[index % 2], new_heap())
                for index in range(6)
            ] + [("deserialize", packed, new_heap())],
        )
        accelerator.codec = CerealSerializer(
            accelerator.registration, use_packing=False
        )
        self._compare(
            device,
            lambda new_heap: [("serialize", roots[index % 2]) for index in range(5)]
            + [("deserialize", streams[0], new_heap())],
        )

    def test_bitmap_widths_not_byte_multiples(self, device):
        _, accelerator, heap, _ = device
        root = build_mixed(heap)
        stream = accelerator.serialize(root)[0].stream
        widths = {
            width
            for _, width in CerealSerializer.decode_sections(stream)
            .layout_bitmap_words()
        }
        assert any(width % 8 for width in widths)
        self._compare(
            device,
            lambda new_heap: [("serialize", root)] * 3
            + [("deserialize", stream, new_heap()) for _ in range(3)],
        )

    def test_stream_data_replaced_between_runs(self, device):
        _, accelerator, heap, _ = device
        small = accelerator.serialize(build_tree(heap, depth=3))[0].stream
        large = accelerator.serialize(build_tree(heap, depth=6))[0].stream
        stream = SerializedStream(format_name="cereal", data=small.data)
        def make(new_heap):
            return [("deserialize", stream, new_heap()) for _ in range(2)]

        self._compare(device, make)
        stream.data = large.data
        run = self._compare(device, make)
        assert all(op.graph_bytes == large.graph_bytes for op in run.operations)


class TestSharedSectionsNotMutated:
    """The rebuild reads the shared unpacked lists and never writes them."""

    @pytest.mark.parametrize(
        "codec_class, options",
        [(CerealSerializer, {}), (CerealSerializer, {"use_packing": False}),
         (CerealSerializer, {"strip_mark_word": True}), (CerealOracle, {})],
        ids=["packed", "baseline", "mark-stripped", "interpreter"],
    )
    def test_rebuild_leaves_sections_intact(self, device, codec_class, options):
        registry, accelerator, heap, _ = device
        codec = codec_class(accelerator.registration, **options)
        for build in (build_tree, build_reference_array, build_mixed,
                      build_primitive_array):
            stream = codec.serialize(build(heap)).stream
            sections = CerealSerializer.decode_sections(stream)
            references = sections.reference_values()
            bitmaps = sections.layout_bitmap_words()
            values = sections.value_words
            snapshot = (list(references), list(bitmaps), list(values))
            for _ in range(2):
                codec.deserialize(stream, Heap(registry=registry),
                                  sections=sections)
                DUWorkload.from_stream_sections(sections)
            # Unpacked at most once: the same lists come back, unchanged.
            assert sections.reference_values() is references
            assert sections.layout_bitmap_words() is bitmaps
            assert (references, bitmaps, values) == snapshot


class TestDeviceErrorPaths:
    """Bad streams fail the device paths with the codec's typed errors."""

    def _errors(self, device, stream):
        """The error of the plain codec, the accelerator and a device run."""
        registry, accelerator, _, simulator = device
        calls = [
            lambda: accelerator.codec.deserialize(stream, Heap(registry=registry)),
            lambda: accelerator.deserialize(stream, Heap(registry=registry)),
            lambda: simulator.run(
                [("deserialize", stream, Heap(registry=registry))] * 2
            ),
        ]
        errors = []
        for call in calls:
            with pytest.raises(Exception) as info:
                call()
            errors.append((type(info.value), str(info.value)))
        return errors

    @pytest.mark.parametrize("packing", [True, False], ids=["packed", "baseline"])
    def test_truncated_stream(self, device, packing):
        _, accelerator, heap, _ = device
        codec = CerealSerializer(accelerator.registration, use_packing=packing)
        stream = codec.serialize(build_tree(heap, depth=3)).stream
        for cut in (5, 20, len(stream.data) // 2, len(stream.data) - 1):
            short = SerializedStream(format_name="cereal", data=stream.data[:cut])
            errors = self._errors(device, short)
            assert errors[0][0] in (FormatError, TruncatedStreamError)
            assert errors == [errors[0]] * 3

    @pytest.mark.parametrize("packing", [True, False], ids=["packed", "baseline"])
    def test_header_inflated_object_count(self, device, packing):
        _, accelerator, heap, _ = device
        codec = CerealSerializer(accelerator.registration, use_packing=packing)
        stream = codec.serialize(build_tree(heap, depth=3)).stream
        data = bytearray(stream.data)
        struct.pack_into("<I", data, 4, DEFAULT_LIMITS.max_objects + 1)
        inflated = SerializedStream(format_name="cereal", data=bytes(data))
        errors = self._errors(device, inflated)
        if packing:
            assert errors[0][0] is ResourceLimitError
        assert errors == [errors[0]] * 3

    def test_stream_size_checked_before_parsing(self, device, monkeypatch):
        """An oversized stream of garbage fails on its size, not its framing."""
        monkeypatch.setattr(limits_module, "DEFAULT_LIMITS",
                            DecodeLimits(max_stream_bytes=32))
        garbage = SerializedStream(format_name="cereal", data=b"\xff" * 33)
        errors = self._errors(device, garbage)
        assert errors[0][0] is ResourceLimitError
        assert "stream_bytes" in errors[0][1]
        assert errors == [errors[0]] * 3
