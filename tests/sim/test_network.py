"""Unit tests for the simulated network: delays, FIFO, holds, partitions."""

from __future__ import annotations

import numpy as np
import pytest

import heapq

from repro.sim.network import (
    ChannelInvariantError,
    DuplicatingNetwork,
    ExponentialLatency,
    FixedLatency,
    LossyNetwork,
    Message,
    Network,
    UniformLatency,
)


def drain(net):
    out = []
    while True:
        m = net.pop_next()
        if m is None:
            return out
        out.append(m)


class TestLatencyModels:
    def test_fixed(self):
        rng = np.random.default_rng(0)
        assert FixedLatency(2.5).delay(0, 1, rng) == 2.5

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)

    def test_uniform_within_bounds(self):
        rng = np.random.default_rng(0)
        m = UniformLatency(1.0, 3.0)
        for _ in range(100):
            assert 1.0 <= m.delay(0, 1, rng) <= 3.0

    def test_uniform_validates_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_exponential_positive(self):
        rng = np.random.default_rng(0)
        m = ExponentialLatency(2.0)
        assert all(m.delay(0, 1, rng) >= 0 for _ in range(100))

    def test_exponential_validates_scale(self):
        with pytest.raises(ValueError):
            ExponentialLatency(0)

    def test_determinism_from_seed(self):
        a = [UniformLatency().delay(0, 1, np.random.default_rng(7)) for _ in range(1)]
        b = [UniformLatency().delay(0, 1, np.random.default_rng(7)) for _ in range(1)]
        assert a == b


class TestSendAndDeliver:
    def test_delivery_in_time_order(self):
        net = Network(2, latency=FixedLatency(1.0))
        net.send(0, 1, "a", now=5.0)
        net.send(0, 1, "b", now=0.0)
        msgs = drain(net)
        assert [m.payload for m in msgs] == ["b", "a"]

    def test_self_send_is_instantaneous(self):
        net = Network(2, latency=FixedLatency(10.0))
        m = net.send(0, 0, "x", now=3.0)
        assert m.deliver_at == 3.0

    def test_broadcast_excludes_sender(self):
        net = Network(4)
        msgs = net.broadcast(1, "p", now=0.0)
        assert sorted(m.dst for m in msgs) == [0, 2, 3]

    def test_counters(self):
        net = Network(3)
        net.broadcast(0, "p", now=0.0)
        assert net.metrics.value("repro_network_messages_sent_total") == 2
        drain(net)
        assert net.metrics.value("repro_network_messages_delivered_total") == 2

    def test_tie_break_is_deterministic(self):
        net = Network(2, latency=FixedLatency(1.0))
        net.send(0, 1, "first", now=0.0)
        net.send(1, 0, "second", now=0.0)
        assert [m.payload for m in drain(net)] == ["first", "second"]

    def test_pid_bounds(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.send(0, 5, "x", now=0.0)


class TestFifo:
    def test_fifo_preserves_per_channel_order(self):
        # Heavily random latencies, but FIFO must never reorder a channel.
        net = Network(2, latency=ExponentialLatency(5.0),
                      rng=np.random.default_rng(3), fifo=True)
        for i in range(50):
            net.send(0, 1, i, now=float(i) * 0.01)
        payloads = [m.payload for m in drain(net)]
        assert payloads == sorted(payloads)

    def test_non_fifo_can_reorder(self):
        net = Network(2, latency=ExponentialLatency(5.0),
                      rng=np.random.default_rng(3), fifo=False)
        for i in range(50):
            net.send(0, 1, i, now=float(i) * 0.01)
        payloads = [m.payload for m in drain(net)]
        assert payloads != sorted(payloads)  # seed chosen to exhibit reorder


class TestHoldsAndPartitions:
    def test_hold_parks_messages(self):
        net = Network(2)
        net.hold(0, 1)
        net.send(0, 1, "x", now=0.0)
        assert net.pop_next() is None
        assert net.pending_count() == 1

    def test_hold_catches_in_flight(self):
        net = Network(2, latency=FixedLatency(5.0))
        net.send(0, 1, "x", now=0.0)
        net.hold(0, 1)
        assert net.pop_next() is None

    def test_release_delivers_held(self):
        net = Network(2)
        net.hold(0, 1)
        net.send(0, 1, "x", now=0.0)
        net.release(0, 1, now=10.0)
        m = net.pop_next()
        assert m.payload == "x"
        assert m.deliver_at >= 10.0

    def test_hold_is_directional(self):
        net = Network(2)
        net.hold(0, 1)
        net.send(1, 0, "back", now=0.0)
        assert net.pop_next().payload == "back"

    def test_partition_blocks_both_ways(self):
        net = Network(4)
        net.partition([[0, 1], [2, 3]])
        net.send(0, 2, "x", now=0.0)
        net.send(3, 1, "y", now=0.0)
        net.send(0, 1, "inside", now=0.0)
        assert net.pop_next().payload == "inside"
        assert net.pop_next() is None

    def test_heal_restores_reliability(self):
        net = Network(2)
        net.partition([[0], [1]])
        net.send(0, 1, "x", now=0.0)
        net.heal(now=4.0)
        assert net.pop_next().payload == "x"

    def test_drop_messages(self):
        net = Network(2)
        net.send(0, 1, "a", now=0.0)
        net.send(1, 0, "b", now=0.0)
        dropped = net.drop_messages(lambda m: m.src == 0)
        assert dropped == 1
        assert [m.payload for m in drain(net)] == ["b"]

    def test_hold_rejects_self_channel(self):
        net = Network(2)
        with pytest.raises(ValueError, match="self-channel"):
            net.hold(1, 1)

    def test_partition_rejects_overlapping_groups(self):
        net = Network(4)
        with pytest.raises(ValueError, match="disjoint"):
            net.partition([[0, 1], [1, 2, 3]])

    def test_partition_validates_pids(self):
        net = Network(3)
        with pytest.raises(ValueError, match="out of range"):
            net.partition([[0], [1, 7]])


class TestFifoRegressions:
    """The hold/release/drop adversary actions must preserve per-channel
    FIFO order — regressions for the floor-corruption bugs."""

    def test_release_refloors_against_later_sends(self):
        # Regression: release() used to reschedule a parked message without
        # consulting or updating _last_fifo_deliver_at, so a message sent
        # on the channel afterwards (with an earlier `now`, as an adversary
        # replaying traffic may) could undercut it and be delivered first.
        net = Network(2, latency=FixedLatency(1.0), fifo=True)
        net.hold(0, 1)
        net.send(0, 1, "held", now=0.0)
        net.release(0, 1, now=10.0)          # parked message now due at 10
        net.send(0, 1, "later", now=2.0)     # must not sneak in before it
        assert [m.payload for m in drain(net)] == ["held", "later"]

    def test_release_keeps_channel_send_order(self):
        # Several messages parked on one channel: released in send order
        # even when their original delivery times were inverted by holds.
        net = Network(2, latency=ExponentialLatency(5.0),
                      rng=np.random.default_rng(3), fifo=True)
        net.hold(0, 1)
        for i in range(20):
            net.send(0, 1, i, now=float(i) * 0.01)
        net.release(0, 1, now=50.0)
        payloads = [m.payload for m in drain(net)]
        assert payloads == sorted(payloads)

    def test_release_updates_floor_for_future_sends(self):
        net = Network(2, latency=FixedLatency(1.0), fifo=True)
        net.hold(0, 1)
        net.send(0, 1, "a", now=0.0)
        net.release(0, 1, now=10.0)
        b = net.send(0, 1, "b", now=10.0)
        assert b.deliver_at >= 10.0

    def test_drop_refloors_channel(self):
        # Regression: a floor left pointing at a dropped message would keep
        # delaying the channel forever.
        net = Network(2, latency=ExponentialLatency(1.0), fifo=True)
        slow = Message(0, 1, "slow", 0.0, 1000.0, next(net._seq))
        net._last_fifo_deliver_at[(0, 1)] = slow.deliver_at
        net._commit(slow)
        net.drop_messages(lambda m: m.payload == "slow")
        fast = net.send(0, 1, "fast", now=1.0)
        assert fast.deliver_at < 1000.0
        assert [m.payload for m in drain(net)] == ["fast"]

    def test_drop_keeps_floor_above_deliveries(self):
        # After a drop the floor must still cover what was already
        # delivered on the channel.
        net = Network(2, latency=FixedLatency(5.0), fifo=True)
        net.send(0, 1, "a", now=0.0)
        net.send(0, 1, "b", now=1.0)
        assert net.pop_next().payload == "a"  # delivered at t=5
        net.drop_messages(lambda m: m.payload == "b")
        c = net.send(0, 1, "c", now=0.0)
        assert c.deliver_at >= 5.0
        drain(net)  # invariant checker would raise on a reorder

    def test_fifo_order_through_hold_release_cycles(self):
        net = Network(3, latency=ExponentialLatency(3.0),
                      rng=np.random.default_rng(11), fifo=True)
        for i in range(10):
            net.send(0, 1, i, now=float(i))
        net.hold(0, 1)
        for i in range(10, 20):
            net.send(0, 1, i, now=float(i))
        net.release(0, 1, now=25.0)
        for i in range(20, 30):
            net.send(0, 1, i, now=float(i) + 20.0)
        payloads = [m.payload for m in drain(net) if m.dst == 1]
        assert payloads == sorted(payloads)


class TestChannelInvariantChecker:
    def test_enabled_on_fifo_networks(self):
        assert Network(2, fifo=True).invariants is not None
        assert Network(2, fifo=False).invariants is None
        assert Network(2, fifo=True, check_invariants=False).invariants is None

    def test_catches_rogue_adversary(self):
        # An adversary that injects under the floor (bypassing send) is
        # caught at pop_next, not silently delivered.
        net = Network(2, latency=FixedLatency(1.0), fifo=True)
        net.send(0, 1, "a", now=10.0)  # due at 11
        rogue = Message(0, 1, "rogue", 0.0, 0.5, next(net._seq))
        heapq.heappush(net._heap, (rogue.sort_key(), rogue))
        assert net.pop_next().payload == "rogue"
        with pytest.raises(ChannelInvariantError, match="FIFO violation"):
            net.pop_next()

    def test_counts_observations(self):
        net = Network(3, fifo=True)
        net.broadcast(0, "x", now=0.0)
        drain(net)
        assert net.invariants.observed == 2
        assert net.invariants.last_delivery(0, 1) is not None


class TestFaultInjectionNetworks:
    def test_lossy_drops_messages(self):
        net = LossyNetwork(2, rng=np.random.default_rng(0),
                           drop_probability=0.5)
        for i in range(100):
            net.send(0, 1, i, now=float(i))
        assert 0 < net.metrics.value("repro_network_messages_lost_total") < 100
        assert net.metrics.value("repro_network_messages_sent_total") == 100
        assert len(drain(net)) == 100 - net.metrics.value("repro_network_messages_lost_total")

    def test_lossy_never_drops_self_sends(self):
        net = LossyNetwork(2, rng=np.random.default_rng(0),
                           drop_probability=1.0)
        net.send(0, 0, "me", now=0.0)
        assert net.pop_next().payload == "me"

    def test_lossy_validates_probability(self):
        with pytest.raises(ValueError, match="probability"):
            LossyNetwork(2, drop_probability=1.5)

    def test_lossy_fifo_survivors_stay_ordered(self):
        net = LossyNetwork(2, latency=ExponentialLatency(4.0),
                           rng=np.random.default_rng(7), fifo=True,
                           drop_probability=0.3)
        for i in range(80):
            net.send(0, 1, i, now=float(i) * 0.1)
        payloads = [m.payload for m in drain(net)]
        assert payloads == sorted(payloads)  # gaps allowed, reorders not
        assert net.metrics.value("repro_network_messages_lost_total") > 0

    def test_duplicating_redelivers(self):
        net = DuplicatingNetwork(2, rng=np.random.default_rng(1),
                                 duplicate_probability=0.5)
        for i in range(50):
            net.send(0, 1, i, now=float(i))
        msgs = drain(net)
        assert net.metrics.value("repro_network_messages_duplicated_total") > 0
        assert len(msgs) == 50 + net.metrics.value("repro_network_messages_duplicated_total")

    def test_duplicating_validates_probability(self):
        with pytest.raises(ValueError, match="probability"):
            DuplicatingNetwork(2, duplicate_probability=-0.1)

    def test_duplicate_arrives_after_original_on_fifo(self):
        net = DuplicatingNetwork(2, latency=ExponentialLatency(4.0),
                                 rng=np.random.default_rng(5), fifo=True,
                                 duplicate_probability=0.5)
        for i in range(60):
            net.send(0, 1, i, now=float(i) * 0.1)
        seen = []
        for m in drain(net):  # checker active: raises on any reorder
            if m.payload not in seen:
                seen.append(m.payload)
        assert seen == sorted(seen)
        assert net.metrics.value("repro_network_messages_duplicated_total") > 0
