"""The closed-loop query phase: one client, seeded lines, swaps.

One client sends a query, waits for the answer, then sends the next —
the path ``repro serve --queries`` takes, on the calling thread.  The
query lines are generated from the benchmark seed before the phase
starts, one block per published snapshot, and each line carries what
the generator knows about it: which verb it exercises and whether it
must hit.  The phase serves the blocks in turn, swapping the block's
snapshot into the engine before it, until its time is up.

Latency is timed around ``engine.execute_line`` alone.  Every answer is
then checked outside the timed region: it parses as JSON, names the
fingerprint of the snapshot that was swapped in, and hits or misses as
the generator expected.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.topology.addressing import MAX_IPV4, int_to_ip

#: Verb classes of the phase: the line-protocol verbs of
#: ``repro.serve.query``, with ``iface`` split into hits and misses and
#: ``health`` into its service-wide and per-facility forms.  This is not
#: observed traffic; no query log exists to take a mix from, so every
#: block holds the same number of lines of each class.
VERBS = (
    "iface",
    "iface-miss",
    "link",
    "tenants",
    "health",
    "health-fac",
    "info",
    "error",
)

#: Lines served from one snapshot before the next is swapped in:
#: :data:`LINES_PER_VERB` of each class, in seeded order.
LINES_PER_VERB = 125
SWAP_EVERY = LINES_PER_VERB * len(VERBS)

#: Malformed lines, the ones ``tests/serve/test_query.py`` checks are
#: answered with an error (``test_errors_never_raise``).
BAD_LINES = (
    "",
    "   ",
    "bogus",
    "iface",
    "iface not-an-address",
    "link 1",
    "link a b",
    "tenants many",
)


@dataclass(slots=True)
class Block:
    """The lines served from one snapshot between two swaps."""

    snapshot: Any
    lines: list[str]
    verbs: list[str]
    #: Expected ``found`` per line (``None`` where the verb has none).
    expect: list[bool | None]


def make_blocks(snapshots: list[Any], seed: int) -> list[Block]:
    """One block of :data:`SWAP_EVERY` seeded lines per snapshot, in order."""
    rng = random.Random(f"perfbench-queries:{seed}")
    blocks = []
    for snapshot in snapshots:
        addresses = sorted(snapshot.interfaces)
        pairs = sorted(snapshot.links_by_aspair)
        facilities = sorted(snapshot.facility_tenants)
        verbs = [verb for verb in VERBS for _ in range(LINES_PER_VERB)]
        rng.shuffle(verbs)
        block = Block(snapshot, [], verbs, [])
        for verb in verbs:
            line, expect = _line(rng, verb, snapshot, addresses, pairs, facilities)
            block.lines.append(line)
            block.expect.append(expect)
        blocks.append(block)
    return blocks


def _line(rng, verb, snapshot, addresses, pairs, facilities):
    if verb == "iface":
        return f"iface {int_to_ip(rng.choice(addresses))}", True
    if verb == "iface-miss":
        while True:
            address = rng.randrange(MAX_IPV4 + 1)
            if address not in snapshot.interfaces:
                return f"iface {int_to_ip(address)}", False
    if verb == "link":
        near, far = rng.choice(pairs)
        return f"link {far} {near}", True
    if verb == "tenants":
        return f"tenants {rng.choice(facilities)}", True
    if verb == "health":
        return "health", None
    if verb == "health-fac":
        return f"health {rng.choice(facilities)}", None
    if verb == "info":
        return "info", None
    return rng.choice(BAD_LINES), None


def check(block: Block, index: int, raw: str) -> str | None:
    """Why one answer is wrong, or ``None`` when it is right."""
    try:
        answer = json.loads(raw)
    except ValueError:
        return f"answer is not JSON: {raw[:80]!r}"
    line, verb, expect = block.lines[index], block.verbs[index], block.expect[index]
    if answer.get("fingerprint") != block.snapshot.fingerprint:
        return f"{line!r} answered from another snapshot"
    if verb == "error":
        return None if "error" in answer else f"{line!r} did not error"
    if "error" in answer:
        return f"{line!r} errored: {answer['error']}"
    query = "health" if verb.startswith("health") else verb.split("-")[0]
    if answer.get("query") != query:
        return f"{line!r} answered as {answer.get('query')!r}"
    if expect is not None and answer.get("found") is not expect:
        return f"{line!r} found={answer.get('found')} expected {expect}"
    if verb == "info" and answer.get("interfaces") != block.snapshot.stats["interfaces"]:
        return f"info reports {answer.get('interfaces')} interfaces"
    return None


@dataclass(slots=True)
class QueryPhase:
    """What one phase measured."""

    seconds: float = 0.0
    #: Nanoseconds inside ``execute_line`` per answered query.
    latency_ns: list[int] = field(default_factory=list)
    verbs: list[str] = field(default_factory=list)
    swap_ns: list[int] = field(default_factory=list)
    raised: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return len(self.latency_ns)


def run_phase(engine: Any, blocks: list[Block], seconds: float) -> QueryPhase:
    """Serve blocks round-robin, swapping before each, for ``seconds``."""
    phase = QueryPhase()
    clock = time.perf_counter_ns
    started = time.perf_counter()
    deadline = started + seconds
    execute = engine.execute_line
    while time.perf_counter() < deadline:
        for block in blocks:
            before = clock()
            engine.swap(block.snapshot)
            phase.swap_ns.append(clock() - before)
            answers: list[str | None] = []
            latencies = phase.latency_ns
            for line in block.lines:
                before = clock()
                try:
                    answer = execute(line)
                except Exception as error:  # a raised query is a failure, not a crash
                    latencies.append(clock() - before)
                    phase.raised += 1
                    phase.problems.append(f"{line!r} raised {error!r}")
                    answers.append(None)
                    continue
                latencies.append(clock() - before)
                answers.append(answer)
            phase.verbs.extend(block.verbs)
            for index, answer in enumerate(answers):
                if answer is None:
                    continue
                problem = check(block, index, answer)
                if problem is not None:
                    phase.wrong += 1
                    phase.problems.append(problem)
            if time.perf_counter() >= deadline:
                break
    phase.seconds = time.perf_counter() - started
    return phase
