"""The three benchmark workloads and their output checks.

Each workload builds its set-up several times, runs its timed
ingest/map region once and checks what it produced; ``stream`` then
serves the maps it published through the closed-loop query phase, and
times its epochs in two more services besides.
:func:`run` builds the set-up again at the end (``setup_s`` is the
median of all the builds) and reads the run's peak memory.
Every call into the program goes through a module attribute
(``pipeline.build_environment``, not a name imported from it), so the
traced run's wrappers see it.

The simulated world is fixed per workload — the repo's reference
profiles — and the benchmark seed drives the generated query stream;
see ``perfbench/README.md`` for why.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import repro.checkpoint
import repro.core.pipeline as pipeline
import repro.serve.outage as outage
import repro.serve.service as service_mod
import repro.serve.snapshot as snapshot_mod
import repro.topology.churn as churn_mod
from repro.obs import Instrumentation
from repro.validation.metrics import AccuracyReport, score_interfaces

import queries
from spans import NullTracer, Tracer

#: Workload name -> world seed (the reference profiles: batch and stream
#: share seed 0 so their maps must be identical; churn uses the outage
#: harness's pinned seed 2).
WORLD_SEED = {"batch-w2": 0, "stream": 0, "churn": 2}
STREAM_EPOCHS = 8
CHURN_EPOCHS = 6
#: Timed set-up builds per run: half after one untimed warm-up build,
#: half at the end of the run once the workload's objects are released.
#: A shared machine's CPU speed can switch over seconds, so builds
#: taken back to back share one speed; builds at both ends of a
#: half-minute run need not.  Each half spans about three seconds.
SETUP_BUILDS = 16
#: The repo's outage-detection floors (ROADMAP, scripts/check.sh).
MIN_PRECISION = 0.9
MIN_RECALL = 0.8


@dataclass(slots=True)
class Outcome:
    """Everything one pass of a workload measured and checked."""

    #: Seconds of every timed set-up build, in order.
    setup_samples: list[float] = field(default_factory=list)
    #: The workload's set-up, built again by :func:`run` at the end.
    rebuild: Callable[[], Any] | None = None
    map_s: float = 0.0
    #: Mean seconds from an epoch's start to its snapshot's publication.
    epoch_s: float = 0.0
    resolved_frac: float = 0.0
    facility_acc: float = 0.0
    peak_rss_mb: float = 0.0
    #: Fingerprint of the final map (``batch-w2`` and ``stream``).
    fingerprint: str | None = None
    #: The query phase (``stream`` only).
    phase: queries.QueryPhase | None = None
    counters: dict[str, int] = field(default_factory=dict)
    stage_s: dict[str, float] = field(default_factory=dict)
    publishes: int = 0
    #: Whether the run's fault plan perturbs probes by design.
    faults_injected: bool = False
    detection: dict[str, Any] | None = None
    snapshot_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)


class Region:
    """One timed region inside a span, after a collection."""

    def __init__(self, tracer: Any, span: str) -> None:
        self._span = tracer.span(span)
        self.seconds = 0.0
        self.started = 0.0

    def __enter__(self) -> "Region":
        gc.collect()
        self._span.__enter__()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self.started
        self._span.__exit__(*exc)


def timed_builds(build: Callable[[], Any], tracer: Any, out: Outcome, count: int) -> Any:
    """Build ``count`` times, adding each build's seconds to ``out.setup_samples``.

    Each build is timed on its own, after the previous one is released
    and a collection, so every build starts from the same heap.
    Returns the last build.
    """
    built = None
    with tracer.span("bench.setup"):
        for _ in range(count):
            built = None
            gc.collect()
            started = time.perf_counter()
            built = build()
            out.setup_samples.append(time.perf_counter() - started)
    return built


def first_builds(build: Callable[[], Any], tracer: Any, out: Outcome) -> Any:
    """The warm-up build, then the first half of :data:`SETUP_BUILDS`."""
    with tracer.span("bench.setup"):
        build()
    out.rebuild = build
    return timed_builds(build, tracer, out, SETUP_BUILDS // 2)


def map_quality(topology: Any, snapshot: Any) -> tuple[float, float]:
    """Resolved share and exact-facility accuracy of one published map.

    Accuracy is :func:`score_interfaces`'s: every resolved interface
    that exists in the ground truth, scored against its true facility.
    """
    report = AccuracyReport()
    for address, facility in snapshot.interface_facility.items():
        if address in topology.interfaces:
            report.add(facility, topology.true_facility_of_address(address), topology)
    stats = snapshot.stats
    return stats["resolved"] / stats["interfaces"], report.facility_accuracy


class EpochClock:
    """Timestamps each epoch publication from the service's progress feed."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def __call__(self, message: str) -> None:
        if message.startswith("serve: epoch ") and " published" in message:
            self.stamps.append(time.perf_counter())

    def epochs_s(self, started: float) -> float:
        """Seconds from ``started`` to the last publication."""
        return self.stamps[-1] - started if self.stamps else 0.0


def _snapshot_bytes(snapshot: Any) -> int:
    return len(
        repro.checkpoint.canonical_json(snapshot_mod.snapshot_payload(snapshot))
    )


def _counters(obs: Instrumentation) -> tuple[dict[str, int], dict[str, float]]:
    snap = obs.snapshot()
    return dict(snap.counters), snap.stage_seconds


# ----------------------------------------------------------------------


def batch_config(scale: str) -> Any:
    return pipeline.PipelineConfig.for_scale(
        scale, seed=WORLD_SEED["batch-w2"], workers=2
    )


def batch_map(config: Any, env: Any, obs: Instrumentation) -> tuple[Any, Any]:
    """Campaign, CFS and the fingerprinted final map of one environment."""
    corpus = env.run_campaign(instrumentation=obs)
    result = env.run_cfs(corpus, instrumentation=obs)
    final = snapshot_mod.build_snapshot(
        result,
        epoch=0,
        final=True,
        seed=config.seed,
        config_fingerprint=repro.checkpoint.config_fingerprint(config),
        traces_ingested=len(corpus),
    )
    return result, final


def batch_w2(scale: str, seed: int, seconds: float, tracer: Any, ctx: "Context") -> Outcome:
    out = Outcome()
    config = batch_config(scale)
    env = first_builds(lambda: pipeline.build_environment(config), tracer, out)
    obs = Instrumentation()
    with Region(tracer, "bench.map") as region:
        result, final = batch_map(config, env, obs)
    out.map_s = region.seconds
    out.epoch_s = region.seconds  # a batch run is one epoch
    out.resolved_frac, out.facility_acc = map_quality(env.topology, final)
    if abs(out.resolved_frac - result.resolved_fraction()) > 1e-12:
        out.fail("snapshot resolved share differs from the CFS result's")
    scored = score_interfaces(env.topology, result).facility_accuracy
    if abs(out.facility_acc - scored) > 1e-12:
        out.fail("snapshot accuracy differs from score_interfaces")
    out.counters, out.stage_s = _counters(obs)
    out.snapshot_bytes = _snapshot_bytes(final)
    out.fingerprint = final.fingerprint
    return out


def stream(scale: str, seed: int, seconds: float, tracer: Any, ctx: "Context") -> Outcome:
    out = Outcome()
    base = pipeline.PipelineConfig.for_scale(scale, seed=WORLD_SEED["stream"], workers=1)

    def build() -> tuple[Any, Instrumentation, EpochClock]:
        config = dataclasses.replace(base, checkpoint_dir=ctx.fresh_dir("stream"))
        obs, clock = Instrumentation(), EpochClock()
        return service_mod.MapService(config, instrumentation=obs, progress=clock), obs, clock

    def epoch_pass() -> float:
        """A fresh service's epochs, paused before the final pass."""
        paused, _, pass_clock = build()
        with Region(tracer, "bench.epochs") as region:
            pass_handle = paused.run_stream(
                STREAM_EPOCHS, stop_after_epoch=STREAM_EPOCHS - 1
            )
        if pass_handle.final is not None or len(pass_clock.stamps) != STREAM_EPOCHS:
            out.fail(f"epoch-only pass published {len(pass_clock.stamps)} epochs")
        return pass_clock.epochs_s(region.started)

    service, obs, clock = first_builds(build, tracer, out)
    # ``epoch_s`` takes in two epoch-only passes, one before the full
    # stream and one after its query phase, so that it spans about twenty seconds of
    # the run rather than seven.
    epoch_seconds = [epoch_pass()]
    with Region(tracer, "bench.map") as region:
        handle = service.run_stream(STREAM_EPOCHS)
    out.map_s = region.seconds
    epoch_seconds.append(clock.epochs_s(region.started))
    final = handle.final
    if final is None:
        out.fail("stream ended without a final snapshot")
        return out
    out.publishes = len(handle.snapshots)
    if len(clock.stamps) != STREAM_EPOCHS:
        out.fail(f"{len(clock.stamps)} epoch publications, expected {STREAM_EPOCHS}")
    out.resolved_frac, out.facility_acc = map_quality(service.environment.topology, final)
    reopened = snapshot_mod.open_snapshot(service.config.checkpoint_dir)
    if reopened.fingerprint != final.fingerprint:
        out.fail("checkpoint dir reopens to another fingerprint than the final map")
    out.fingerprint = final.fingerprint
    blocks = queries.make_blocks(handle.snapshots, seed)
    with Region(tracer, "query.phase"):
        out.phase = queries.run_phase(service.engine, blocks, seconds)
    for problem in out.phase.problems[:20]:
        out.fail(problem)
    if len(out.phase.problems) > 20:
        out.fail(f"... and {len(out.phase.problems) - 20} more wrong or raised queries")
    out.counters, out.stage_s = _counters(obs)
    out.snapshot_bytes = _snapshot_bytes(final)
    # The full stream's service is released before the last pass runs.
    del service, handle, final, blocks
    epoch_seconds.append(epoch_pass())
    out.epoch_s = sum(epoch_seconds) / (STREAM_EPOCHS * len(epoch_seconds))
    ctx.notes.append(
        "epochs of three streams (s): " + " ".join(f"{s:.3f}" for s in epoch_seconds)
    )
    return out


def churn(scale: str, seed: int, seconds: float, tracer: Any, ctx: "Context") -> Outcome:
    out = Outcome()
    world = WORLD_SEED["churn"]
    config = pipeline.PipelineConfig.for_scale(scale, seed=world)
    config = dataclasses.replace(
        config,
        faults=outage.measurement_faults(1.0),
        cfs=config.cfs.replace(degraded_mode=True),
    )

    def build() -> tuple[Any, Instrumentation, EpochClock]:
        obs, clock = Instrumentation(), EpochClock()
        return service_mod.MapService(config, instrumentation=obs, progress=clock), obs, clock

    service, obs, clock = first_builds(build, tracer, out)
    out.faults_injected = config.faults is not None
    plan = churn_mod.plan_churn(
        service.environment.topology,
        CHURN_EPOCHS,
        churn_mod.ChurnConfig.moderate(),
        world,
    )
    with Region(tracer, "bench.map") as region:
        handle = service.run_stream(CHURN_EPOCHS, churn=plan)
    out.map_s = region.seconds
    out.epoch_s = clock.epochs_s(region.started) / CHURN_EPOCHS
    out.publishes = len(handle.snapshots)
    if out.publishes != CHURN_EPOCHS or len(clock.stamps) != CHURN_EPOCHS:
        out.fail(f"{out.publishes} churned epochs published, expected {CHURN_EPOCHS}")
        return out
    last = handle.snapshots[-1]
    out.resolved_frac, out.facility_acc = map_quality(service.environment.topology, last)
    policy = service.disruption_policy
    assert service.detector is not None
    scores = outage.score_detection(
        plan, service.detector.reports, grace=policy.confirm_epochs + 1
    )
    out.detection = scores
    if not scores["power_losses"]:
        out.fail("churn plan drew no power loss to detect")
    elif scores["recall"] < MIN_RECALL:
        out.fail(f"detection recall {scores['recall']} < {MIN_RECALL}")
    if scores["precision"] is None or scores["precision"] < MIN_PRECISION:
        out.fail(f"detection precision {scores['precision']} < {MIN_PRECISION}")
    out.counters, out.stage_s = _counters(obs)
    out.snapshot_bytes = _snapshot_bytes(last)
    return out


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "batch-w2": batch_w2,
    "stream": stream,
    "churn": churn,
}


class Context:
    """Per-run state shared with a workload: scratch dirs, notes.

    Scratch dirs live inside the checkout and are removed by
    :meth:`close`.  The batch map's fingerprint is recorded in the
    output dir, keyed by the scale and a digest of the program's
    source, and outlives the run.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
        self._scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir / "tmp"))
        self.notes: list[str] = []

    def fresh_dir(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self._scratch)

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)

    def fingerprint_record(self, scale: str) -> Path:
        return self.out_dir / f"batch-fingerprint-{scale}-{source_digest()[:16]}.json"

    def recorded_fingerprint(self, scale: str) -> str | None:
        try:
            return json.loads(self.fingerprint_record(scale).read_text())["fingerprint"]
        except (OSError, ValueError, KeyError):
            return None

    def record_fingerprint(self, scale: str, fingerprint: str) -> None:
        self.fingerprint_record(scale).write_text(
            json.dumps({"fingerprint": fingerprint})
        )


@functools.cache
def source_digest() -> str:
    """SHA-256 over the program's source and this file, which sets the
    batch map's configuration."""
    package = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()


def check_batch_identity(name: str, scale: str, out: Outcome, ctx: Context) -> None:
    """The stream==batch and workers==serial contracts, across workloads.

    ``batch-w2`` records its final map's fingerprint once its own checks
    passed, or compares against the record another run left for the
    same source.  ``stream`` compares against that record; with none,
    it builds the batch map itself, untimed, and records it.
    """
    if out.fingerprint is None or out.problems:
        return
    recorded = ctx.recorded_fingerprint(scale)
    if name == "batch-w2":
        if recorded is None:
            ctx.record_fingerprint(scale, out.fingerprint)
        elif recorded != out.fingerprint:
            out.fail("batch-w2 final map differs from the one recorded for this source")
        return
    source = "recorded batch-w2 map"
    if recorded is None:
        config = batch_config(scale)
        env = pipeline.build_environment(config)
        recorded = batch_map(config, env, Instrumentation())[1].fingerprint
        ctx.record_fingerprint(scale, recorded)
        source = "batch-w2 map built in this run (none recorded for this source)"
    if recorded != out.fingerprint:
        out.fail("stream final fingerprint differs from batch-w2's at the same seed")
    ctx.notes.append(f"stream==batch: checked against the {source}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run(name: str, scale: str, seed: int, seconds: float, ctx: Context, tracer: Tracer | None = None) -> Outcome:
    """One pass of workload ``name``; traced when ``tracer`` is given."""
    if tracer is None:
        return _run(name, scale, seed, seconds, ctx, NullTracer())
    with tracer.span("bench.run"):
        return _run(name, scale, seed, seconds, ctx, tracer)


def _run(name: str, scale: str, seed: int, seconds: float, ctx: Context, tracer: Any) -> Outcome:
    out = WORKLOADS[name](scale, seed, seconds, tracer, ctx)
    # The workload's objects are released by now: the last set-up
    # builds start from the same heap as the first ones did.
    timed_builds(out.rebuild, tracer, out, SETUP_BUILDS - SETUP_BUILDS // 2)
    out.peak_rss_mb = peak_rss_mb()
    ctx.notes.append(
        "set-up builds (s): " + " ".join(f"{s:.3f}" for s in out.setup_samples)
    )
    return out
