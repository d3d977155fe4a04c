"""The address processor's memory pipeline: two-step stores, dynamic
disambiguation and the store→load bypass (paper §4.2 and §7).

Each test drives :class:`~repro.dva.address.MemoryPipeline` directly with the
scalars the simulator reads off trace columns, so the expected cycles follow
from the memory timing: a vector reference holds the port for VL cycles and
its last element arrives ``latency`` cycles after its bus occupancy ends.
Unless a test names it, the machine has the bypass off.
"""

import pytest

from repro.common.errors import SimulationError
from repro.core import MachineSpec
from repro.dva.address import MemoryPipeline

LATENCY = 20
BASE = 0x1000


def _pipeline(bypass=False, **fields):
    return MemoryPipeline(MachineSpec(family="dva", bypass=bypass, **fields), LATENCY)


def _queued_store(pipeline, base=BASE, length=8, stride=1, indexed=False,
                  requested=0, data_ready=10):
    """Enqueue a vector store's address at ``requested`` and its data at ``data_ready``."""
    pipeline.enqueue_vector_store(base, length, stride, indexed, requested)
    pipeline.attach_store_data(data_ready)


class TestLoads:
    def test_load_without_queued_stores_goes_straight_to_memory(self):
        pipeline = _pipeline()
        assert pipeline.issue_vector_load(BASE, 16, 1, False, requested=5) == 5 + LATENCY + 16
        assert pipeline.fabric.port_recorder().starts == [5]
        assert pipeline.fabric.traffic_bytes == 16 * 8
        assert pipeline.disambiguation_stalls == 0

    def test_loads_serialize_on_a_single_port(self):
        pipeline = _pipeline()
        pipeline.issue_vector_load(BASE, 16, 1, False, requested=0)
        pipeline.issue_vector_load(BASE + 0x800, 16, 1, False, requested=0)
        assert pipeline.fabric.port_recorder().starts == [0, 16]

    def test_a_second_port_overlaps_loads(self):
        pipeline = _pipeline(memory_ports=2)
        pipeline.issue_vector_load(BASE, 16, 1, False, requested=0)
        second = pipeline.issue_vector_load(BASE + 0x800, 16, 1, False, requested=0)
        assert second == 0 + LATENCY + 16
        assert pipeline.fabric.port_free == [16, 16]
        assert pipeline.fabric.port_quiet() == 16

    def test_scalar_load_hits_the_cache_the_second_time(self):
        pipeline = _pipeline()
        assert pipeline.issue_scalar_load(BASE, requested=0) == 0 + 1 + LATENCY
        assert pipeline.issue_scalar_load(BASE, requested=40) == 40 + 1
        assert (pipeline.fabric.cache.hits, pipeline.fabric.cache.misses) == (1, 1)
        assert pipeline.fabric.traffic_bytes == 8


    def test_a_scalar_store_hit_stays_off_the_port(self):
        pipeline = _pipeline()
        pipeline.issue_scalar_load(BASE, requested=0)  # allocates the line
        pipeline.enqueue_scalar_store(BASE, requested=1)
        pipeline.attach_store_data(60)
        # The cache absorbs the hit (no write-through): one cycle, no bus.
        assert pipeline.drain_all() == 60 + 1
        assert pipeline.fabric.port_recorder().busy_time() == 1
        assert pipeline.fabric.traffic_bytes == 8


class TestDisambiguation:
    def test_disjoint_load_does_not_wait_for_a_queued_store(self):
        pipeline = _pipeline()
        pipeline.enqueue_vector_store(BASE, 8, 1, False, requested=0)
        pipeline.issue_vector_load(BASE + 0x800, 8, 1, False, requested=3)
        assert pipeline.fabric.port_recorder().starts == [3]
        assert pipeline.disambiguation_stalls == 0

    def test_overlapping_load_waits_for_the_store_to_drain(self):
        pipeline = _pipeline()
        _queued_store(pipeline, data_ready=10)
        data_ready = pipeline.issue_vector_load(BASE + 8, 8, 1, False, requested=3)
        # The store drains as soon as its data is ready: bus [10, 18).
        assert pipeline.fabric.port_recorder().starts == [10, 18]
        assert data_ready == 18 + LATENCY + 8
        assert pipeline.disambiguation_stalls == 1
        assert pipeline.fabric.traffic_bytes == 2 * 8 * 8

    def test_gather_conflicts_with_every_queued_store(self):
        pipeline = _pipeline()
        _queued_store(pipeline, data_ready=10)
        pipeline.issue_vector_load(0xF0000, 8, 1, True, requested=3)
        assert pipeline.fabric.port_recorder().starts == [10, 18]
        assert pipeline.disambiguation_stalls == 1

    def test_scalar_load_waits_for_an_overlapping_scalar_store(self):
        pipeline = _pipeline()
        pipeline.enqueue_scalar_store(BASE, requested=0)
        pipeline.attach_store_data(6)
        # The store misses the cache and takes the port at 6; the load then
        # finds the line allocated and hits.
        assert pipeline.issue_scalar_load(BASE, requested=2) == 7 + 1
        assert pipeline.disambiguation_stalls == 1

    def test_conflicting_store_without_data_is_a_simulation_error(self):
        pipeline = _pipeline()
        pipeline.enqueue_vector_store(BASE, 8, 1, False, requested=0)
        with pytest.raises(SimulationError, match="has no data yet"):
            pipeline.issue_vector_load(BASE, 8, 1, False, requested=3)

    def test_ready_store_uses_the_port_before_a_later_load(self):
        pipeline = _pipeline()
        _queued_store(pipeline, data_ready=2)
        pipeline.issue_vector_load(BASE + 0x800, 8, 1, False, requested=5)
        # The store (ready at 2) is performed first: bus [2, 10).
        assert pipeline.fabric.port_recorder().starts == [2, 10]
        assert pipeline.disambiguation_stalls == 0


class TestBypass:
    def test_identical_load_is_serviced_from_the_store_data_queue(self):
        pipeline = _pipeline(bypass=True)
        _queued_store(pipeline, data_ready=10)
        # VL cycles on the bypass unit once the store data is there (10); no
        # memory latency and no port traffic.
        assert pipeline.issue_vector_load(BASE, 8, 1, False, requested=3) == 18
        assert pipeline.bypassed_loads == 1
        assert pipeline.bypassed_bytes == 64
        assert pipeline.fabric.traffic_bytes == 0
        assert pipeline.disambiguation_stalls == 0
        assert pipeline.bypass_free == 18

    def test_without_the_bypass_an_identical_load_drains(self):
        pipeline = _pipeline(bypass=False)
        _queued_store(pipeline, data_ready=10)
        pipeline.issue_vector_load(BASE, 8, 1, False, requested=3)
        assert pipeline.bypassed_loads == 0
        assert pipeline.disambiguation_stalls == 1

    @pytest.mark.parametrize(
        "load",
        [
            pytest.param({"base": BASE + 8}, id="different-base"),
            pytest.param({"length": 4}, id="different-length"),
            pytest.param({"stride": 2}, id="different-stride"),
            pytest.param({"indexed": True}, id="gather"),
        ],
    )
    def test_overlapping_but_not_identical_loads_drain_instead(self, load):
        pipeline = _pipeline(bypass=True)
        _queued_store(pipeline, data_ready=10)
        request = {"base": BASE, "length": 8, "stride": 1, "indexed": False, **load}
        pipeline.issue_vector_load(
            request["base"], request["length"], request["stride"], request["indexed"], 3
        )
        assert pipeline.bypassed_loads == 0
        assert pipeline.disambiguation_stalls == 1

    def test_a_scatter_is_never_bypassed(self):
        pipeline = _pipeline(bypass=True)
        _queued_store(pipeline, indexed=True, data_ready=10)
        pipeline.issue_vector_load(BASE, 8, 1, False, requested=3)
        assert pipeline.bypassed_loads == 0

    def test_a_scalar_store_is_never_bypassed(self):
        pipeline = _pipeline(bypass=True)
        pipeline.enqueue_scalar_store(BASE, requested=0)
        pipeline.attach_store_data(6)
        pipeline.issue_vector_load(BASE, 1, 1, False, requested=3)
        assert pipeline.bypassed_loads == 0
        assert pipeline.disambiguation_stalls == 1

    def test_the_youngest_matching_store_is_bypassed(self):
        pipeline = _pipeline(bypass=True)
        _queued_store(pipeline, data_ready=10)
        _queued_store(pipeline, requested=1, data_ready=30)
        # The copy waits for the younger store's data (30), not the older's.
        assert pipeline.issue_vector_load(BASE, 8, 1, False, requested=3) == 30 + 8
        assert pipeline.bypassed_loads == 1
        # Both stores stay queued and still drain in order afterwards.
        assert [store.data_ready for store in pipeline.pending_stores] == [10, 30]
        assert pipeline.drain_all() == 38
        assert pipeline.fabric.port_recorder().intervals() == [(10, 18), (30, 38)]


class TestStoreQueues:
    def test_full_vsaq_forces_the_oldest_store_to_drain(self):
        pipeline = _pipeline(vector_store_data=1)
        _queued_store(pipeline, data_ready=10)
        # The second address waits for the first store's bus release at 18.
        assert pipeline.enqueue_vector_store(BASE + 0x800, 8, 1, False, requested=2) == 18
        assert pipeline.fabric.port_recorder().intervals() == [(10, 18)]
        assert [store.base for store in pipeline.pending_stores] == [BASE + 0x800]

    def test_full_ssaq_forces_the_oldest_store_to_drain(self):
        pipeline = _pipeline(scalar_store_address=1)
        pipeline.enqueue_scalar_store(BASE, requested=0)
        pipeline.attach_store_data(5)
        # The first store misses the cache and holds the port over [5, 6);
        # the second address waits for that release.
        assert pipeline.enqueue_scalar_store(BASE + 0x800, requested=2) == 6
        assert pipeline.fabric.port_recorder().intervals() == [(5, 6)]
        assert [store.base for store in pipeline.pending_stores] == [BASE + 0x800]

    def test_the_queues_fill_separately(self):
        pipeline = _pipeline(vector_store_data=1, scalar_store_address=1)
        _queued_store(pipeline, data_ready=10)
        # A scalar store neither waits for nor drains the full VSAQ.
        assert pipeline.enqueue_scalar_store(BASE + 0x800, requested=2) == 2
        assert (pipeline.vector_queued, pipeline.scalar_queued) == (1, 1)
        assert pipeline.fabric.port_recorder().starts == []

    def test_a_full_queue_drains_the_oldest_store_of_either_kind(self):
        pipeline = _pipeline(vector_store_data=1)
        pipeline.enqueue_scalar_store(BASE + 0x800, requested=0)
        pipeline.attach_store_data(3)
        _queued_store(pipeline, data_ready=10)
        # Stores leave in program order, so the full VSAQ first drains the
        # older scalar store (port [3, 4)), then its own (port [10, 18)).
        assert pipeline.enqueue_vector_store(BASE, 8, 1, False, requested=2) == 18
        assert pipeline.fabric.port_recorder().intervals() == [(3, 4), (10, 18)]

    def test_data_attaches_to_the_newest_store(self):
        pipeline = _pipeline()
        pipeline.enqueue_vector_store(BASE, 8, 1, False, requested=0)
        pipeline.enqueue_scalar_store(BASE + 0x800, requested=1)
        pipeline.attach_store_data(9)
        assert [store.data_ready for store in pipeline.pending_stores] == [None, 9]

    def test_vector_store_data_waits_for_the_slot_its_address_took(self):
        pipeline = _pipeline(vector_store_data=2)
        _queued_store(pipeline, data_ready=10)
        # An empty queue's slots are free from cycle 0.
        assert pipeline.vector_data_slot() == 0
        _queued_store(pipeline, base=BASE + 0x800, requested=1, data_ready=12)
        assert pipeline.vector_data_slot() == 0
        # The third store's address and data both take the first store's
        # slot, released when its bus occupancy ends at 18.
        assert pipeline.enqueue_vector_store(BASE + 0x1000, 8, 1, False, requested=2) == 18
        assert pipeline.vector_data_slot() == 18

    def test_a_full_queue_whose_oldest_store_has_no_data_raises(self):
        pipeline = _pipeline(vector_store_data=1)
        pipeline.enqueue_vector_store(BASE, 8, 1, False, requested=0)
        with pytest.raises(SimulationError, match="has no data yet"):
            pipeline.enqueue_vector_store(BASE + 0x800, 8, 1, False, requested=1)

    def test_a_store_leaving_before_its_push_raises(self, monkeypatch):
        pipeline = _pipeline()
        _queued_store(pipeline, requested=20, data_ready=30)
        # A port that hands back a cycle before the push breaks FIFO order.
        monkeypatch.setattr(pipeline.fabric, "occupy_bus", lambda *request: (0, 5))
        with pytest.raises(SimulationError, match="leaves at 5, before its push at 20"):
            pipeline.drain_all()

    def test_drain_all_performs_the_remaining_stores_in_order(self):
        pipeline = _pipeline()
        _queued_store(pipeline, data_ready=10)
        _queued_store(pipeline, base=BASE + 0x800, requested=1, data_ready=12)
        assert pipeline.drain_all() == 26
        assert pipeline.fabric.port_recorder().intervals() == [(10, 18), (18, 26)]
        assert not pipeline.pending_stores
        assert pipeline.vector_queued == 0

    def test_drained_stores_leave_the_pipeline_state(self):
        pipeline = _pipeline(vector_store_data=2)
        for index in range(6):
            _queued_store(pipeline, base=BASE + 0x800 * index,
                          requested=index, data_ready=10 + index)
        # Only the undrained stores and the queue's window remain.
        assert [store.base for store in pipeline.pending_stores] == [
            BASE + 0x800 * 4, BASE + 0x800 * 5,
        ]
        assert pipeline.vector_queued == 2
        assert list(pipeline.vector_pops) == [34, 42]

    def test_drain_all_without_stores_is_the_port_quiet_cycle(self):
        pipeline = _pipeline()
        pipeline.issue_vector_load(BASE, 8, 1, False, requested=4)
        assert pipeline.drain_all() == 12
