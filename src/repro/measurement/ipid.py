"""IP-ID responder: what alias-resolution probes see on the wire.

MIDAR (Keys et al., used in Section 4.1) sends probe trains to candidate
interface addresses and applies the *monotonic bounds test*: two
addresses belong to the same router only if the interleaved IP-ID
samples are consistent with a single shared increasing counter.

This module implements the responder side.  Each router answers probes
according to its operator's :class:`~repro.topology.asn.IPIDMode`:

* ``SHARED_COUNTER`` — one velocity-limited counter for all interfaces;
  aliases are detectable.
* ``PER_INTERFACE``  — each interface gets its own counter; the bounds
  test (correctly) rejects the pair.
* ``RANDOM``         — pseudo-random IDs, rejected by the test.
* ``CONSTANT``       — always zero, unusable.
* ``UNRESPONSIVE``   — no replies at all (the Google case in the paper).

A counter advances only when one of its own addresses is probed: two
interleaved probes to interfaces of one shared-counter router observe
strictly increasing (mod 2^16) values, while probes elsewhere leave it
untouched.  All randomness — each counter's first-touch offset and
velocity, and the RANDOM/HOST answers — comes from one seeded
``Random`` drawn in probe order, so answers depend on the order in
which addresses are probed.

Each address is resolved once, on first touch, to a zero-argument
*prober* closure chosen by interface kind and IP-ID mode
(:meth:`IpidResponder.prober`); :meth:`IpidResponder.probe` is just a
call through that cache.  A counter's offset and velocity are still
drawn on the prober's first *call*, so caching the closure never moves
a draw.
"""

from __future__ import annotations

from functools import partial
from random import Random
from typing import Callable

from ..topology.asn import IPIDMode
from ..topology.network import Interface, InterfaceKind
from ..topology.topology import Topology

__all__ = ["IpidResponder", "IPID_MODULUS", "Prober"]

#: IP-ID is a 16-bit field; counters wrap.
IPID_MODULUS = 1 << 16

#: One address's answer to one probe: the IP-ID, or ``None`` for no reply.
Prober = Callable[[], int | None]


def _silent() -> None:
    """Unknown and unresponsive addresses never answer."""
    return None


def _zero() -> int:
    """Constant-IP-ID routers always answer zero."""
    return 0


class IpidResponder:
    """Answers IP-ID probes for every interface of a topology."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self._topology = topology
        self._rng = Random(seed)
        # Counter cells, ``[value, velocity]``, keyed by router id
        # (shared counters) or by address (per-interface counters); a
        # cell stays empty until its first probe draws both.  Values
        # accumulate as floats so that a router's characteristic
        # velocity is measurable to sub-integer precision — MIDAR's
        # velocity sieve depends on aliases exhibiting matching rates.
        self._router_cells: dict[int, list[float]] = {}
        self._iface_cells: dict[int, list[float]] = {}
        self._probers: dict[int, Prober] = {}

    def _velocity(self) -> float:
        """IP-ID increments per probe: background traffic rate.

        At least 1.0 so every probe observes a fresh IP-ID (a shared
        counter that repeated a value would wrongly fail the monotonic
        bounds test).
        """
        return self._rng.uniform(1.0, 9.0)

    def prober(self, address: int) -> Prober:
        """The cached zero-argument prober answering for ``address``.

        Resolved once per address, on first touch, by interface kind
        and the operator's IP-ID mode; every later probe is one call.
        Unknown addresses resolve to a silent prober and are not cached.
        """
        probe = self._probers.get(address)
        if probe is None:
            interface = self._topology.interfaces.get(address)
            if interface is None:
                return _silent
            probe = self._probers[address] = self._resolve(address, interface)
        return probe

    def _resolve(self, address: int, interface: Interface) -> Prober:
        """Pick the answer model of one known interface."""
        if interface.kind is InterfaceKind.HOST:
            # Servers are separate devices: their IP-ID stream tells
            # nothing about the gateway router, so MIDAR must discard
            # them rather than alias them onto the router.
            return partial(self._rng.randrange, IPID_MODULUS)
        router = self._topology.routers[interface.router_id]
        mode = self._topology.ases[router.asn].ipid_mode
        if mode is IPIDMode.UNRESPONSIVE:
            return _silent
        if mode is IPIDMode.CONSTANT:
            return _zero
        if mode is IPIDMode.RANDOM:
            return partial(self._rng.randrange, IPID_MODULUS)
        if mode is IPIDMode.PER_INTERFACE:
            return self._counter(self._iface_cells, address)
        # SHARED_COUNTER: one counter per router; every probe to any of
        # the router's interfaces advances the same counter.
        return self._counter(self._router_cells, router.router_id)

    def _counter(self, cells: dict[int, list[float]], key: int) -> Prober:
        """A prober advancing the counter cell ``cells[key]``."""
        cell = cells.setdefault(key, [])
        rng = self._rng
        velocity = self._velocity

        def probe() -> int:
            if not cell:
                # First touch of this counter: offset, then velocity.
                cell.append(float(rng.randrange(IPID_MODULUS)))
                cell.append(velocity())
            cell[0] += cell[1]
            return int(cell[0]) % IPID_MODULUS

        return probe

    def probe(self, address: int) -> int | None:
        """Send one probe to ``address``; return the IP-ID or ``None``.

        ``None`` models an unresponsive interface (no reply before the
        prober's timeout).  Two successive probes to interfaces of the
        same shared-counter router always observe strictly increasing
        (mod 2^16) values.
        """
        return self.prober(address)()

    def probe_train(self, address: int, count: int = 3) -> list[int | None]:
        """Send ``count`` back-to-back probes to one address."""
        probe = self.prober(address)
        return [probe() for _ in range(count)]
