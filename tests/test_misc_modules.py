"""Coverage for the support modules: rng, log, buffer, status, constants,
config, actions."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.errors import ConfigError, MpiError, SimulationError
from repro.log import bind_clock, get_logger, set_verbosity
from repro.smpi import DOUBLE, INT, SmpiConfig, constants
from repro.smpi.buffer import BufferSpec, pack_object, resolve, unpack_object
from repro.smpi.status import Status
from repro.surf.action import (
    Action,
    ActionState,
    ComputeAction,
    NetworkAction,
    SleepAction,
)
from repro.surf.resources import Host, Link


class TestRng:
    def test_default_generator_reproducible(self):
        a = rng_mod.generator().random(4)
        b = rng_mod.generator().random(4)
        np.testing.assert_array_equal(a, b)

    def test_seeded_generator_differs(self):
        a = rng_mod.generator(1).random(4)
        b = rng_mod.generator(2).random(4)
        assert not np.array_equal(a, b)

    def test_substreams_independent_and_stable(self):
        a1 = rng_mod.substream(7, "alpha").random(4)
        a2 = rng_mod.substream(7, "alpha").random(4)
        b = rng_mod.substream(7, "beta").random(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_substream_label_path(self):
        a = rng_mod.substream(7, "x", 1).random(2)
        b = rng_mod.substream(7, "x", 2).random(2)
        assert not np.array_equal(a, b)


class TestLog:
    def test_logger_namespace(self):
        logger = get_logger("surf")
        assert logger.name == "repro.surf"

    def test_set_verbosity(self):
        set_verbosity("DEBUG")
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)

    def test_clock_binding(self):
        from repro.log import _SimClockFilter

        record = logging.LogRecord("repro.test", logging.WARNING, __file__, 1,
                                   "hello", (), None)
        bind_clock(lambda: 12.5)
        try:
            assert _SimClockFilter().filter(record)
            assert record.simtime == 12.5
        finally:
            bind_clock(None)
        assert _SimClockFilter().filter(record)
        assert record.simtime == 0.0


class TestBufferSpec:
    def test_resolve_plain_array(self):
        spec = resolve(np.zeros(5))
        assert spec.count == 5 and spec.datatype is DOUBLE
        assert spec.nbytes == 40

    def test_resolve_with_count(self):
        spec = resolve([np.zeros(10, dtype=np.int32), 4])
        assert spec.count == 4 and spec.datatype is INT

    def test_resolve_with_count_and_type(self):
        spec = resolve([np.zeros(10, dtype=np.int32), 4, INT])
        assert spec.count == 4

    def test_resolve_with_type_only(self):
        spec = resolve([np.zeros(8, dtype=np.int32), INT])
        assert spec.count == 8

    def test_resolve_rejects_junk_extras(self):
        with pytest.raises(MpiError):
            resolve([np.zeros(2), "four"])
        with pytest.raises(MpiError):
            resolve([])
        with pytest.raises(MpiError):
            resolve([np.zeros(2), 1, INT, 9])

    def test_resolve_rejects_negative_count(self):
        with pytest.raises(MpiError):
            resolve([np.zeros(2), -1])

    def test_unpack_overflow_is_truncation_error(self):
        spec = BufferSpec(np.zeros(2), 2, DOUBLE)
        too_much = np.zeros(100, dtype=np.uint8)
        with pytest.raises(MpiError):
            spec.unpack(too_much)

    def test_unpack_partial_message(self):
        target = np.zeros(4)
        spec = BufferSpec(target, 4, DOUBLE)
        spec.unpack(DOUBLE.pack(np.array([1.0, 2.0]), 2))
        assert target.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_unpack_non_integral_count_rejected(self):
        spec = BufferSpec(np.zeros(4), 4, DOUBLE)
        with pytest.raises(MpiError):
            spec.unpack(np.zeros(12, dtype=np.uint8))  # 1.5 doubles

    def test_object_roundtrip(self):
        payload = {"a": [1, 2, (3, "four")], "b": None}
        spec = pack_object(payload)
        assert unpack_object(spec.array) == payload


class TestStatus:
    def test_get_count(self):
        status = Status(source=1, tag=2, count_bytes=32)
        assert status.get_count(DOUBLE) == 4
        assert status.get_count(INT) == 8

    def test_get_count_non_integral_is_undefined(self):
        status = Status(count_bytes=10)
        assert status.get_count(DOUBLE) == constants.UNDEFINED

    def test_cancelled_flag(self):
        assert not Status().is_cancelled()
        assert Status(cancelled=True).is_cancelled()


class TestConstants:
    def test_error_strings(self):
        assert constants.error_string(constants.SUCCESS) == "MPI_SUCCESS"
        assert constants.error_string(constants.ERR_TRUNCATE) == "MPI_ERR_TRUNCATE"
        assert "UNKNOWN" in constants.error_string(424242)

    def test_special_values_distinct(self):
        values = {constants.ANY_SOURCE, constants.ANY_TAG, constants.PROC_NULL,
                  constants.ROOT, constants.UNDEFINED}
        # ANY_SOURCE == ANY_TAG (-1) by MPI convention; the rest distinct
        assert len(values) == 4


class TestConfig:
    def test_defaults(self):
        config = SmpiConfig()
        assert config.eager_threshold == 64 * 1024
        assert math.isinf(config.eager_copy_bandwidth)
        assert not config.zero_copy

    def test_with_options_copies(self):
        base = SmpiConfig()
        derived = base.with_options(eager_threshold=1)
        assert derived.eager_threshold == 1
        assert base.eager_threshold == 64 * 1024

    def test_with_options_rejects_unknown(self):
        with pytest.raises(ConfigError):
            SmpiConfig().with_options(warp_drive=True)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SmpiConfig(eager_threshold=-1)
        with pytest.raises(ConfigError):
            SmpiConfig(send_overhead=-1e-6)
        with pytest.raises(ConfigError):
            SmpiConfig(speed_factor=0)

    def test_memory_limit_parses_strings(self):
        config = SmpiConfig.from_options({"memory_limit": "2GiB"})
        assert config.memory_limit == 2 * 1024**3

    def test_from_options_keeps_valid_values_as_given(self):
        config = SmpiConfig.from_options({
            "eager_threshold": "1KiB", "send_overhead": 0, "zero_copy": True,
            "comm_timeout": None, "coll.bcast": "linear",
            "coll.alltoall": "auto", "on_host_down": "kill-rank",
        }, tracing=True)
        assert config.eager_threshold == 1024
        assert type(config.send_overhead) is int  # an int is not made float
        assert config.coll_algorithms == {"bcast": "linear",
                                          "alltoall": "auto"}
        assert config.tracing and config.zero_copy
        assert config.on_host_down == "kill-rank"

    @pytest.mark.parametrize("options", [
        {"eager_threshold": "64 parsecs"}, {"eager_threshold": 1.5},
        {"comm_retries": "3"}, {"comm_retries": 1.0}, {"comm_retries": True},
        {"send_overhead": "fast"}, {"zero_copy": 1}, {"speed_factor": None},
        {"on_host_down": "panic"}, {"on_host_down": 1},
        {"warp_drive": True}, {"tracing": True}, {"coll_algorithms": {}},
        {"coll.telepathy": "auto"}, {"coll.bcast": "carrier-pigeon"},
        {"coll.bcast": ["linear"]},
    ])
    def test_from_options_refuses(self, options):
        with pytest.raises(ConfigError):
            SmpiConfig.from_options(options)

    def test_algorithm_for(self):
        config = SmpiConfig(coll_algorithms={"bcast": "linear"})
        assert config.algorithm_for("bcast") == "linear"
        assert config.algorithm_for("alltoall") == "auto"


class TestActions:
    HOST = Host("h", 1e9)
    LINK = Link("l", 1e8, 1e-4)

    def test_network_action_lifecycle(self):
        action = NetworkAction("n", 1000.0, (self.LINK,), latency=1e-4)
        assert action.state is ActionState.LATENCY
        action.advance(1e-4)
        assert action.state is ActionState.RUNNING
        action.rate = 1e6
        action.advance(1e-3)
        assert action.state is ActionState.DONE

    def test_zero_size_zero_latency_completes_immediately(self):
        action = NetworkAction("z", 0, (), latency=0.0)
        assert action.state is ActionState.DONE

    def test_compute_action_bound_is_core_speed(self):
        action = ComputeAction("c", 1e9, self.HOST)
        assert action.rate_bound == self.HOST.speed

    def test_sleep_action_counts_down(self):
        action = SleepAction("s", 0.5)
        assert action.time_to_completion() == pytest.approx(0.5)
        action.advance(0.5)
        assert action.state is ActionState.DONE

    def test_negative_amount_rejected(self):
        with pytest.raises(SimulationError):
            Action("bad", -1.0)
        with pytest.raises(SimulationError):
            Action("bad", 1.0, latency=-1.0)

    def test_fail_only_pending(self):
        action = SleepAction("s", 0.1)
        action.fail()
        assert action.state is ActionState.FAILED
        done = SleepAction("d", 0)
        done.fail()  # no-op on completed actions
        assert done.state is ActionState.DONE

    def test_stalled_action_reports_inf(self):
        action = NetworkAction("n", 1000.0, (self.LINK,), latency=0.0)
        action.rate = 0.0
        assert math.isinf(action.time_to_completion())
