"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions at each layer boundary of the
program — from here, without touching ``src/`` — and records one span
per call: name, start, end, and the span that was open when the call
began (its parent).  Spans stay in memory and are read once the run
ends.  A span's *self time* is its duration minus its children's, so
the self times of every span under the root add up to the root's
duration exactly.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.remove`; ``remove`` restores every patched attribute to
the object it held before, and :func:`installed_wrappers` lets a test
confirm nothing is left behind.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Marker attribute carried by every wrapper this module installs.
WRAPPER_MARK = "__perfbench_span__"


@dataclass(slots=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    #: Work measured for the call where the layer has a size (addresses
    #: passed to MIDAR, bytes a checkpoint write left on disk); else 0.
    items: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: Where each span is installed: (module, attribute path, span name,
#: ``measure(args, kwargs, result)`` giving the span's item count, or
#: None).  A module-level function is patched in the module that
#: *calls* it, because the caller bound the name at import time.
TARGETS: tuple[tuple[str, str, str, Callable[..., int] | None], ...] = (
    ("repro.core.pipeline", "build_topology", "topology.build", None),
    ("repro.core.pipeline", "build_environment", "env.build", None),
    ("repro.serve.service", "build_environment", "env.build", None),
    (
        "repro.measurement.campaign",
        "CampaignDriver.initial_campaign",
        "campaign.execute",
        None,
    ),
    (
        "repro.measurement.campaign",
        "CampaignDriver.execute_plan",
        "campaign.execute",
        lambda args, kwargs, result: sum(t is not None for t in result or ()),
    ),
    (
        "repro.measurement.campaign",
        "CampaignDriver.probe_peering",
        "followup.probe",
        None,
    ),
    (
        "repro.alias.midar",
        "MidarResolver.resolve",
        "alias.resolve",
        lambda args, kwargs, result: len(args[1]),
    ),
    ("repro.core.cfs", "ConstrainedFacilitySearch.run", "cfs.run", None),
    ("repro.serve.ingest", "StreamingCfs.fold", "ingest.fold", None),
    ("repro.serve.service", "build_snapshot", "snapshot.build", None),
    ("repro.serve.snapshot", "build_snapshot", "snapshot.build", None),
    ("repro.serve.supervise", "ServiceSupervisor.publish", "publish", None),
    (
        "repro.checkpoint.store",
        "CheckpointStore.write_stage",
        "checkpoint.write",
        lambda args, kwargs, result: _stage_bytes(args[0], args[1]),
    ),
    ("repro.serve.service", "diff_snapshots", "inference.diff", None),
    (
        "repro.inference.disruption",
        "DisruptionDetector.observe",
        "inference.observe",
        None,
    ),
    ("repro.topology.churn", "ChurnPlan.view", "churn.view", None),
    ("repro.serve.service", "censor_trace", "churn.censor", None),
)

#: The fork-pool entry points: spanned only when a pool really runs
#: (``workers > 1`` and more than one payload); a serial map is the
#: caller's own work, not the executor's.
POOL_TARGETS = (
    ("repro.core.cfs", "supervised_map"),
    ("repro.measurement.campaign", "supervised_map"),
)

#: The layers, each the first dotted component of its span names.
#: ``bench`` holds the benchmark's own spans (root, set-up loop, map).
LAYERS = (
    "bench",
    "topology",
    "env",
    "campaign",
    "exec",
    "alias",
    "cfs",
    "followup",
    "ingest",
    "snapshot",
    "publish",
    "checkpoint",
    "query",
    "inference",
    "churn",
)


def _stage_bytes(store: Any, stage: str) -> int:
    """Size of the file one checkpoint stage write left behind."""
    try:
        return (store.root / f"stage-{stage}.json").stat().st_size
    except OSError:
        return 0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records nested spans around the layer boundaries in :data:`TARGETS`."""

    #: Span names whose latest return value is kept in :attr:`last`.
    KEEP = frozenset({"cfs.run"})

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.last: dict[str, Any] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter_ns()))
        self._stack.append(index)
        return index

    def close(self, index: int, items: int = 0) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        span.items = items
        popped = self._stack.pop()
        assert popped == index, "spans closed out of order"

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with tracer.span(name):`` — a span the benchmark opens itself."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- installing wrappers -------------------------------------------

    def _wrap(self, fn: Callable, name: str, measure: Callable | None) -> Callable:
        tracer = self
        keep = name in self.KEEP

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                items = measure(args, kwargs, result) if measure else 0
                tracer.close(index, items)
            if keep:
                tracer.last[name] = result
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def _wrap_pool(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(func: Any, payloads: Any, *args: Any, **kwargs: Any) -> Any:
            if kwargs.get("workers", 1) <= 1 or len(payloads) <= 1:
                return fn(func, payloads, *args, **kwargs)
            index = tracer.open("exec.map")
            try:
                return fn(func, payloads, *args, **kwargs)
            finally:
                tracer.close(index, len(payloads))

        setattr(wrapper, WRAPPER_MARK, "exec.map")
        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        # ``__dict__`` lookup keeps a class's own attribute (never an
        # inherited one) so ``remove`` restores exactly what was there.
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer wrappers already installed")
        for module_name, path, name, measure in TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, measure))
        for module_name, attr in POOL_TARGETS:
            owner, _ = _resolve(module_name, attr)
            self._patch(owner, attr, self._wrap_pool(getattr(owner, attr)))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span (duration minus its children's)."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        return own

    def layer_self_s(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        totals = dict.fromkeys(LAYERS, 0)
        for span, own in zip(self.spans, self.self_ns()):
            totals[layer_of(span.name)] += own
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def inclusive_s(self, name: str) -> float:
        """Seconds inside ``name`` spans, counting nested ones once."""
        total = 0
        for span in self.spans:
            if span.name == name and not self._inside(span, name):
                total += span.duration_ns
        return total / 1e9

    def _inside(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def items(self, name: str) -> int:
        return sum(span.items for span in self.spans if span.name == name)


def installed_wrappers() -> list[str]:
    """Every tracer wrapper currently reachable from a target attribute."""
    found = []
    for module_name, path, _, _ in TARGETS:
        owner, attr = _resolve(module_name, path)
        if hasattr(vars(owner)[attr], WRAPPER_MARK):
            found.append(f"{module_name}:{path}")
    for module_name, attr in POOL_TARGETS:
        owner, _ = _resolve(module_name, attr)
        if hasattr(vars(owner)[attr], WRAPPER_MARK):
            found.append(f"{module_name}:{attr}")
    return found


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: spans cost nothing."""

    def span(self, name: str) -> nullcontext:
        return nullcontext()
