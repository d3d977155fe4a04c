"""Validation and defaults of the decoupled machine's configuration blocks."""

import pytest

from repro.common.errors import ConfigurationError
from repro.dva.config import DecoupledConfig, QueueSizes


class TestQueueSizes:
    def test_defaults_are_the_papers_section_5_machine(self):
        queues = QueueSizes()
        assert queues.instruction_queue == 16
        assert queues.vector_load_data == 256
        assert queues.vector_store_data == 16
        assert queues.scalar_store_address == 16
        assert queues.scalar_data == 256

    @pytest.mark.parametrize(
        "field",
        [
            "instruction_queue",
            "vector_load_data",
            "vector_store_data",
            "vector_store_address",
            "scalar_store_address",
            "scalar_data",
        ],
    )
    @pytest.mark.parametrize("size", [0, -4])
    def test_non_positive_sizes_are_refused(self, field, size):
        with pytest.raises(ConfigurationError, match=field):
            QueueSizes(**{field: size})

    def test_vsaq_follows_the_vadq_unless_overridden(self):
        assert QueueSizes(vector_store_data=4).effective_vector_store_address == 4
        overridden = QueueSizes(vector_store_data=4, vector_store_address=9)
        assert overridden.effective_vector_store_address == 9


class TestDecoupledConfig:
    def test_defaults(self):
        config = DecoupledConfig()
        assert config.queues == QueueSizes()
        assert config.enable_bypass is False
        assert config.qmov_units == 2
        assert config.lanes == 1
        assert config.memory_ports == 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"qmov_units": 0}, "queue-move unit"),
            ({"functional_unit_startup": -1}, "startup"),
            ({"queue_move_startup": -1}, "startup"),
            ({"cross_processor_delay": -1}, "cross-processor delay"),
            ({"lanes": 0}, "lane"),
            ({"memory_ports": 0}, "memory port"),
        ],
    )
    def test_invalid_parameters_are_refused(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            DecoupledConfig(**kwargs)

    def test_zero_startups_and_delay_are_legal(self):
        config = DecoupledConfig(
            functional_unit_startup=0, queue_move_startup=0, cross_processor_delay=0
        )
        assert config.functional_unit_startup == 0

    def test_configs_are_frozen_and_compare_by_value(self):
        config = DecoupledConfig(enable_bypass=True)
        assert config == DecoupledConfig(enable_bypass=True)
        assert hash(config) == hash(DecoupledConfig(enable_bypass=True))
        with pytest.raises(AttributeError):
            config.enable_bypass = False
