"""Probe kernels against straightforward reference models.

The IP-ID responder resolves each address once to a cached prober, MIDAR
walks its velocity window in place and drives those probers directly,
and the traceroute engine reuses a Paris path template per (source
router, destination).  Each must answer exactly what the plain
implementation below answers: the same IP-IDs in the same order, the
same alias sets, probe counts and counters, the same RNG state
afterwards, the same traceroutes to the bit.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.alias.midar import (
    AliasSets,
    MidarConfig,
    MidarResolver,
    UnionFind,
    velocity_estimate,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.measurement.ipid import IPID_MODULUS, IpidResponder
from repro.measurement.traceroute import (
    TraceHop,
    Traceroute,
    TracerouteConfig,
    TracerouteEngine,
)
from repro.obs import Instrumentation
from repro.topology import IPIDMode
from repro.topology.network import InterfaceKind


class ReferenceResponder:
    """The plain responder: every probe looks its address up afresh."""

    def __init__(self, topology, seed: int = 0) -> None:
        self._topology = topology
        self._rng = Random(seed)
        self._router_counter: dict[int, float] = {}
        self._router_velocity: dict[int, float] = {}
        self._iface_counter: dict[int, float] = {}
        self._iface_velocity: dict[int, float] = {}

    def _velocity(self) -> float:
        return self._rng.uniform(1.0, 9.0)

    def probe(self, address: int) -> int | None:
        interface = self._topology.interfaces.get(address)
        if interface is None:
            return None
        router = self._topology.routers[interface.router_id]
        if interface.kind is InterfaceKind.HOST:
            return self._rng.randrange(IPID_MODULUS)
        mode = self._topology.ases[router.asn].ipid_mode
        if mode is IPIDMode.UNRESPONSIVE:
            return None
        if mode is IPIDMode.CONSTANT:
            return 0
        if mode is IPIDMode.RANDOM:
            return self._rng.randrange(IPID_MODULUS)
        if mode is IPIDMode.PER_INTERFACE:
            counter = self._iface_counter.get(address)
            if counter is None:
                counter = float(self._rng.randrange(IPID_MODULUS))
                self._iface_velocity[address] = self._velocity()
            counter += self._iface_velocity[address]
            self._iface_counter[address] = counter
            return int(counter) % IPID_MODULUS
        counter = self._router_counter.get(router.router_id)
        if counter is None:
            counter = float(self._rng.randrange(IPID_MODULUS))
            self._router_velocity[router.router_id] = self._velocity()
        counter += self._router_velocity[router.router_id]
        self._router_counter[router.router_id] = counter
        return int(counter) % IPID_MODULUS

    def probe_train(self, address: int, count: int = 3) -> list[int | None]:
        return [self.probe(address) for _ in range(count)]


def probe_panel(topology, per_class: int = 4) -> list[int]:
    """Addresses of every IP-ID mode and kind, plus unknown addresses."""
    picked: dict[tuple[IPIDMode, bool], list[int]] = {}
    for address in sorted(topology.interfaces):
        interface = topology.interfaces[address]
        mode = topology.ases[topology.routers[interface.router_id].asn].ipid_mode
        key = (mode, interface.kind is InterfaceKind.HOST)
        bucket = picked.setdefault(key, [])
        if len(bucket) < per_class:
            bucket.append(address)
    assert {mode for mode, _ in picked} == set(IPIDMode)
    assert any(host for _, host in picked)
    panel = [address for bucket in picked.values() for address in bucket]
    # Two aliases of one shared-counter router, so interleavings tick one
    # counter from two addresses.
    for router in topology.routers.values():
        if topology.ases[router.asn].ipid_mode is not IPIDMode.SHARED_COUNTER:
            continue
        usable = [
            a
            for a in router.interfaces
            if topology.interfaces[a].kind is not InterfaceKind.HOST
        ]
        if len(usable) >= 2:
            panel.extend(usable[:2])
            break
    unknown = [address for address in (1, 2, 3) if address not in topology.interfaces]
    assert unknown
    return panel + unknown


class TestResponderReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_answer_identically(self, small_topology, seed):
        panel = probe_panel(small_topology)
        reference = ReferenceResponder(small_topology, seed=seed)
        responder = IpidResponder(small_topology, seed=seed)
        order = Random(1000 + seed)
        expected: list[int | None] = []
        actual: list[int | None] = []
        for _ in range(3000):
            address = order.choice(panel)
            if order.random() < 0.2:
                count = order.randint(1, 6)
                expected.extend(reference.probe_train(address, count))
                actual.extend(responder.probe_train(address, count))
            else:
                expected.append(reference.probe(address))
                actual.append(responder.probe(address))
        assert actual == expected
        assert responder._rng.getstate() == reference._rng.getstate()

    def test_prober_is_resolved_once_per_address(self, small_topology):
        responder = IpidResponder(small_topology, seed=9)
        address = next(
            a
            for a, interface in sorted(small_topology.interfaces.items())
            if interface.kind is not InterfaceKind.HOST
        )
        assert responder.prober(address) is responder.prober(address)

    def test_resolving_a_prober_draws_nothing(self, small_topology):
        responder = IpidResponder(small_topology, seed=10)
        before = responder._rng.getstate()
        for address in probe_panel(small_topology):
            responder.prober(address)
        assert responder._rng.getstate() == before


# ----------------------------------------------------------------------
# MIDAR
# ----------------------------------------------------------------------


class ReferenceResolver:
    """The plain resolver: a sieve candidate list, one counter bump per event."""

    def __init__(self, responder, obs, fault_injector=None) -> None:
        self._responder = responder
        self.config = MidarConfig()
        self._obs = obs
        self._faults = fault_injector
        self.probes_sent = 0
        self._rejected_pairs: set[tuple[int, int]] = set()
        self._accepted_pairs: set[tuple[int, int]] = set()

    def _estimate(self, addresses):
        velocities = {}
        for address in addresses:
            train = self._responder.probe_train(address, self.config.estimation_train)
            self.probes_sent += len(train)
            samples = [s for s in train if s is not None]
            if len(samples) < self.config.estimation_train:
                continue
            if all(s == samples[0] for s in samples):
                continue
            velocity = velocity_estimate(samples)
            if velocity is None or velocity > self.config.max_plausible_velocity:
                continue
            velocities[address] = velocity
        return velocities

    def _sieve(self, velocities):
        ranked = sorted(velocities.items(), key=lambda item: (item[1], item[0]))
        bound = self.config.velocity_ratio_bound
        candidates = []
        for i, (address_a, velocity_a) in enumerate(ranked):
            ceiling = velocity_a * bound
            for address_b, velocity_b in ranked[i + 1 :]:
                if velocity_b > ceiling:
                    break
                candidates.append((address_a, address_b))
        return candidates

    def _eliminate(self, a, b, velocity_a, velocity_b):
        expected_stride = velocity_a + velocity_b
        tolerance = 0.8 + 0.05 * expected_stride
        for _ in range(self.config.elimination_rounds):
            interleaved = []
            per_address = {a: [], b: []}
            total_advance = 0
            for _ in range(self.config.elimination_train):
                for address in (a, b):
                    sample = self._responder.probe(address)
                    self.probes_sent += 1
                    if sample is None:
                        return False
                    if interleaved:
                        step = (sample - interleaved[-1]) % IPID_MODULUS
                        if step == 0:
                            return False
                        total_advance += step
                        if total_advance >= IPID_MODULUS:
                            return False
                    interleaved.append(sample)
                    per_address[address].append(sample)
            for samples in per_address.values():
                stride = velocity_estimate(samples)
                if stride is None or abs(stride - expected_stride) > tolerance:
                    return False
        return True

    def resolve(self, addresses):
        probes_before = self.probes_sent
        velocities = self._estimate(sorted(set(addresses)))
        union_find = UnionFind()
        for address in velocities:
            union_find.add(address)
        for pair in self._accepted_pairs:
            if pair[0] in velocities and pair[1] in velocities:
                union_find.union(*pair)
        for a, b in self._sieve(velocities):
            pair = (a, b) if a < b else (b, a)
            if pair in self._rejected_pairs or pair in self._accepted_pairs:
                self._obs.count("midar.pair_cache_hits")
                continue
            if union_find.find(a) == union_find.find(b):
                continue
            self._obs.count("midar.pairs_probed")
            if self._eliminate(a, b, velocities[a], velocities[b]):
                if self._faults is not None and self._faults.alias_false_negative():
                    self._rejected_pairs.add(pair)
                    self._obs.count("midar.fault_false_negatives")
                    continue
                union_find.union(a, b)
                self._accepted_pairs.add(pair)
                self._obs.count("midar.pairs_accepted")
            else:
                self._rejected_pairs.add(pair)
        self._obs.count("midar.probes_sent", self.probes_sent - probes_before)
        return AliasSets.from_groups(union_find.groups())


def midar_addresses(topology) -> list[int]:
    """Every probe-able address, in a seeded order (growing prefixes of it
    are the successive refreshes)."""
    addresses = [
        address
        for address, interface in sorted(topology.interfaces.items())
        if interface.kind is not InterfaceKind.LOOPBACK
    ]
    Random(77).shuffle(addresses)
    return addresses


class TestMidarReference:
    @pytest.mark.parametrize("false_negatives", [0.0, 0.3])
    def test_growing_resolves_match_reference(self, small_topology, false_negatives):
        def injector(obs):
            if not false_negatives:
                return None
            return FaultInjector(
                FaultPlan(alias_false_negative=false_negatives),
                seed=4,
                instrumentation=obs,
            )

        ref_obs, obs = Instrumentation(), Instrumentation()
        ref_responder = ReferenceResponder(small_topology, seed=12)
        responder = IpidResponder(small_topology, seed=12)
        reference = ReferenceResolver(ref_responder, ref_obs, injector(ref_obs))
        resolver = MidarResolver(
            responder, instrumentation=obs, fault_injector=injector(obs)
        )
        addresses = midar_addresses(small_topology)
        for size in (200, 500, 500, 900, len(addresses)):
            expected = reference.resolve(addresses[:size])
            actual = resolver.resolve(addresses[:size])
            assert actual.sets == expected.sets
            assert resolver.probes_sent == reference.probes_sent
            assert obs.snapshot().counters == ref_obs.snapshot().counters
            assert responder._rng.getstate() == ref_responder._rng.getstate()
        counters = obs.snapshot().counters
        assert counters["midar.pairs_accepted"] > 0
        assert counters["midar.pair_cache_hits"] > 0
        if false_negatives:
            assert counters["midar.fault_false_negatives"] > 0


# ----------------------------------------------------------------------
# Paris traceroute
# ----------------------------------------------------------------------


def reference_sample(engine, one_way_ms: float, rng) -> float:
    """One RTT sample, drawn with ``Random.uniform`` as written."""
    config = engine._rtt.config
    rtt = 2.0 * one_way_ms
    rtt += rng.uniform(0.0, config.jitter_ms)
    if rng.random() < config.congestion_prob:
        rtt += rng.uniform(0.0, config.congestion_ms)
    return rtt


def reference_trace(engine, src_router, dst_address, source_id, platform):
    """The plain Paris trace: path, delays and noise computed per call."""
    engine.traces_issued += 1
    rng = engine._trace_rng(source_id, dst_address)
    topology = engine.topology
    src = topology.routers[src_router]
    flow_id = engine._flow_id(src_router, dst_address, 0)
    path = engine.forwarder.router_path(src_router, dst_address, flow_id)

    def finish(hops, reached):
        return engine._finish(
            Traceroute(
                source_id=source_id,
                platform=platform,
                src_asn=src.asn,
                dst_address=dst_address,
                hops=tuple(hops),
                reached=reached,
            )
        )

    if path is None:
        return finish((), False)
    if len(path) == 1:
        return finish(
            (TraceHop(ttl=1, address=dst_address, rtt_ms=0.1, router_id=src_router),),
            True,
        )
    config = engine.config
    rtt_config = engine._rtt.config
    hops: list[TraceHop] = []
    here = topology.router_location(src_router)
    one_way_ms = rtt_config.access_ms / 2.0
    reached = False
    host_target = topology.interfaces[dst_address].kind is InterfaceKind.HOST
    for ttl, router_hop in enumerate(path[1:], start=1):
        if ttl > config.max_ttl:
            break
        there = topology.router_location(router_hop.router_id)
        one_way_ms += engine._rtt.step_one_way_ms(here, there)
        here = there
        is_last = router_hop is path[-1]
        if is_last and not host_target:
            address = dst_address
        else:
            address = router_hop.ingress_address
        if address is not None and rng.random() < config.hop_loss_prob:
            address = None
        rtt = None
        if address is not None:
            rtt = min(
                reference_sample(engine, one_way_ms, rng)
                for _ in range(config.rtt_samples)
            )
        hops.append(
            TraceHop(ttl=ttl, address=address, rtt_ms=rtt, router_id=router_hop.router_id)
        )
        if is_last and not host_target and address is not None:
            reached = True
    if host_target and hops and len(path) - 1 <= config.max_ttl:
        one_way_ms += rtt_config.per_hop_processing_ms + 0.05
        rtt = min(
            reference_sample(engine, one_way_ms, rng)
            for _ in range(config.rtt_samples)
        )
        hops.append(
            TraceHop(
                ttl=hops[-1].ttl + 1,
                address=dst_address,
                rtt_ms=rtt,
                router_id=path[-1].router_id,
            )
        )
        reached = True
    return finish(hops, reached)


def trace_probes(topology, count: int, seed: int) -> list[tuple[int, int]]:
    """Seeded (source router, destination) pairs of every shape."""
    rng = Random(seed)
    routers = sorted(topology.routers)
    addresses = sorted(topology.interfaces)
    hosts = [a for a in addresses if topology.interfaces[a].kind is InterfaceKind.HOST]
    probes = []
    for _ in range(count):
        src = rng.choice(routers)
        roll = rng.random()
        if roll < 0.35:
            dst = rng.choice(hosts)
        elif roll < 0.45:
            dst = rng.choice(sorted(topology.routers[src].interfaces))  # on-source
        elif roll < 0.5:
            dst = rng.choice((1, 2, 3))  # unknown, so unroutable
        else:
            dst = rng.choice(addresses)
        probes.append((src, dst))
    return probes


CONFIGS = {
    "default": TracerouteConfig(),
    "lossy": TracerouteConfig(hop_loss_prob=0.3),
    "short": TracerouteConfig(max_ttl=3, hop_loss_prob=0.1),
    "one-sample": TracerouteConfig(rtt_samples=1, max_ttl=1),
}


class TestTracerouteReference:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_traces_match_reference(self, small_topology, name):
        config = CONFIGS[name]
        reference = TracerouteEngine(small_topology, config=config, seed=31)
        engine = TracerouteEngine(small_topology, config=config, seed=31)
        probes = trace_probes(small_topology, 400, seed=len(name))
        # Every pair is probed again later: re-probes reuse the template
        # and draw fresh noise from the next ``seq``.
        probes = probes + probes[::2] + probes[::3]
        shapes = {"host": 0, "on-source": 0, "unroutable": 0, "truncated": 0}
        for index, (src, dst) in enumerate(probes):
            source_id = f"vp{src % 7}"
            expected = reference_trace(reference, src, dst, source_id, "ref")
            actual = engine.trace(src, dst, source_id, "ref")
            assert actual == expected, (name, index, src, dst)
            interface = small_topology.interfaces.get(dst)
            if interface is None:
                shapes["unroutable"] += 1
            elif interface.router_id == src:
                shapes["on-source"] += 1
            elif interface.kind is InterfaceKind.HOST:
                shapes["host"] += 1
            if expected.hops and expected.hops[-1].ttl == config.max_ttl:
                shapes["truncated"] += 1
        assert engine.traces_issued == reference.traces_issued
        assert engine.issue_baseline() == reference.issue_baseline()
        required = {"host", "on-source", "unroutable"}
        if config.max_ttl <= 3:
            required.add("truncated")
        assert all(shapes[shape] for shape in required), shapes

    def test_template_is_cached_per_pair(self, small_topology):
        engine = TracerouteEngine(small_topology, seed=5)
        src = sorted(small_topology.routers)[0]
        dst = next(
            a
            for a in sorted(small_topology.interfaces)
            if small_topology.interfaces[a].router_id != src
        )
        first = engine.trace(src, dst, "vp", "p")
        template = engine._templates[(src, dst)]
        second = engine.trace(src, dst, "vp", "p")
        assert engine._templates[(src, dst)] is template
        assert [h.router_id for h in first.hops] == [h.router_id for h in second.hops]
