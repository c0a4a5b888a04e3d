"""Turn workload outcomes into the benchmark's metrics and verdict.

:data:`END_TO_END` and :data:`PER_LAYER` are the metric tables
``BENCHMARK.json`` declares (the smoke test keeps the two in step).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import queries
import spans
import workloads

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("map_s", "s"),
    ("epoch_s", "s"),
    ("resolved_frac", "ratio"),
    ("facility_acc", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Verb classes with their own latency metric (``query.<verb>.p50_us``).
QUERY_VERBS = ("iface", "iface-miss", "link", "tenants", "health", "info", "error")

#: (name, unit) of every per-layer metric, printed by ``--trace 1``.
PER_LAYER = (
    ("topology.build_s", "s"),
    ("env.build_s", "s"),
    ("campaign.execute_s", "s"),
    ("campaign.traces", "count"),
    ("campaign.probes_issued", "count"),
    ("campaign.retries", "count"),
    ("campaign.gave_up_frac", "ratio"),
    ("exec.map_s", "s"),
    ("exec.shards", "count"),
    ("exec.blocks", "count"),
    ("exec.shard_retries", "count"),
    ("exec.pool_rebuilds", "count"),
    ("alias.resolve_s", "s"),
    ("alias.resolve_calls", "count"),
    ("alias.addresses_in", "count"),
    ("alias.probes_sent", "count"),
    ("alias.pairs_probed", "count"),
    ("alias.pair_accept_frac", "ratio"),
    ("alias.pair_cache_hit_frac", "ratio"),
    ("cfs.run_s", "s"),
    ("cfs.self_s", "s"),
    ("cfs.map_s", "s"),
    ("cfs.extract_s", "s"),
    ("cfs.constrain_s", "s"),
    ("cfs.propagate_s", "s"),
    ("cfs.finalize_s", "s"),
    ("cfs.iterations", "count"),
    ("cfs.apply_frac", "ratio"),
    ("followup.probe_s", "s"),
    ("followup.calls", "count"),
    ("followup.traces", "count"),
    ("followup.yield", "ratio"),
    ("ingest.fold_s", "s"),
    ("ingest.folds", "count"),
    ("snapshot.build_s", "s"),
    ("snapshot.payload_bytes", "bytes"),
    ("publish_s", "s"),
    ("publish.retries", "count"),
    ("publish.rollbacks", "count"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("query.qps", "1/s"),
    ("query.p50_us", "us"),
    ("query.p99_us", "us"),
    *((f"query.{verb}.p50_us", "us") for verb in QUERY_VERBS),
    ("query.swap_us", "us"),
    ("query.samples", "count"),
    ("inference.diff_s", "s"),
    ("inference.observe_s", "s"),
    ("inference.alarms", "count"),
    ("inference.recall", "ratio"),
    ("inference.precision", "ratio"),
    ("inference.latency_epochs", "epochs"),
    ("churn.view_s", "s"),
    ("churn.censor_s", "s"),
    *((f"self.{layer}_s", "s") for layer in spans.LAYERS),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(sorted_values: list[int], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return float(sorted_values[index])


def end_to_end(out: workloads.Outcome) -> dict[str, float]:
    return {
        "setup_s": out.setup_s,
        "map_s": out.map_s,
        "epoch_s": out.epoch_s,
        "resolved_frac": out.resolved_frac,
        "facility_acc": out.facility_acc,
        "peak_rss_mb": out.peak_rss_mb,
    }


def read_metrics(phase: queries.QueryPhase | None) -> dict[str, float]:
    """Throughput and latency of the query phase (zero without one)."""
    if phase is None or not phase.answered:
        return {"qps": 0.0, "p50_us": 0.0, "p99_us": 0.0}
    latencies = sorted(phase.latency_ns)
    return {
        "qps": _ratio(len(latencies), sum(latencies) / 1e9),
        "p50_us": _percentile(latencies, 0.50) / 1e3,
        "p99_us": _percentile(latencies, 0.99) / 1e3,
    }


def followup_yield(result: Any, followup_traces: int) -> float:
    """Interfaces resolved after the first follow-up round, per follow-up trace."""
    if result is None or not followup_traces:
        return 0.0
    history = result.history
    first = next((i for i, it in enumerate(history) if it.followups_issued), None)
    if first is None:
        return 0.0
    return (history[-1].resolved - history[first].resolved) / followup_traces


def per_layer(
    out: workloads.Outcome, tracer: spans.Tracer, untraced_map_s: float
) -> dict[str, float]:
    c = out.counters.get
    inclusive = tracer.inclusive_s
    own = tracer.layer_self_s()
    phase = out.phase or queries.QueryPhase()
    by_verb: dict[str, list[int]] = {verb: [] for verb in QUERY_VERBS}
    for verb, latency in zip(phase.verbs, phase.latency_ns):
        by_verb["health" if verb == "health-fac" else verb].append(latency)
    detection = out.detection or {}
    root = next(s for s in tracer.spans if s.name == "bench.run")
    metrics = {
        "topology.build_s": inclusive("topology.build"),
        "env.build_s": own["env"],
        "campaign.execute_s": inclusive("campaign.execute"),
        "campaign.traces": tracer.items("campaign.execute"),
        "campaign.probes_issued": c("campaign.probes_issued", 0),
        "campaign.retries": c("campaign.retries", 0),
        "campaign.gave_up_frac": _ratio(
            c("campaign.probe_gave_up", 0), c("campaign.probes_issued", 0)
        ),
        "exec.map_s": inclusive("exec.map"),
        "exec.shards": c("exec.campaign.shards", 0),
        "exec.blocks": c("exec.extract.blocks", 0),
        "exec.shard_retries": c("exec.shard.retry", 0),
        "exec.pool_rebuilds": c("exec.pool.rebuild", 0),
        "alias.resolve_s": inclusive("alias.resolve"),
        "alias.resolve_calls": tracer.calls("alias.resolve"),
        "alias.addresses_in": tracer.items("alias.resolve"),
        "alias.probes_sent": c("midar.probes_sent", 0),
        "alias.pairs_probed": c("midar.pairs_probed", 0),
        "alias.pair_accept_frac": _ratio(
            c("midar.pairs_accepted", 0), c("midar.pairs_probed", 0)
        ),
        "alias.pair_cache_hit_frac": _ratio(
            c("midar.pair_cache_hits", 0),
            c("midar.pair_cache_hits", 0) + c("midar.pairs_probed", 0),
        ),
        "cfs.run_s": inclusive("cfs.run"),
        "cfs.self_s": own["cfs"],
        **{
            f"cfs.{stage}_s": out.stage_s.get(stage, 0.0)
            for stage in ("map", "extract", "constrain", "propagate", "finalize")
        },
        "cfs.iterations": c("cfs.iterations", 0),
        "cfs.apply_frac": _ratio(
            c("cfs.constraints_narrowed", 0), c("cfs.observations_applied", 0)
        ),
        "followup.probe_s": inclusive("followup.probe"),
        "followup.calls": tracer.calls("followup.probe"),
        "followup.traces": c("campaign.followup_traces", 0),
        "followup.yield": followup_yield(
            tracer.last.get("cfs.run"), c("campaign.followup_traces", 0)
        ),
        "ingest.fold_s": inclusive("ingest.fold"),
        "ingest.folds": tracer.calls("ingest.fold"),
        "snapshot.build_s": inclusive("snapshot.build"),
        "snapshot.payload_bytes": out.snapshot_bytes,
        "publish_s": inclusive("publish"),
        "publish.retries": c("serve.publish.retries", 0),
        "publish.rollbacks": c("serve.snapshot.rollback", 0),
        "checkpoint.write_s": inclusive("checkpoint.write"),
        "checkpoint.bytes_written": tracer.items("checkpoint.write"),
        **{
            f"query.{verb}.p50_us": (
                _percentile(sorted(values), 0.5) / 1e3 if values else 0.0
            )
            for verb, values in by_verb.items()
        },
        **{f"query.{k}": v for k, v in read_metrics(out.phase).items()},
        "query.swap_us": (
            _percentile(sorted(phase.swap_ns), 0.5) / 1e3 if phase.swap_ns else 0.0
        ),
        "query.samples": phase.answered,
        "inference.diff_s": inclusive("inference.diff"),
        "inference.observe_s": inclusive("inference.observe"),
        "inference.alarms": detection.get("alarms", 0),
        "inference.recall": detection.get("recall") or 0.0,
        "inference.precision": detection.get("precision") or 0.0,
        "inference.latency_epochs": detection.get("mean_latency") or 0.0,
        "churn.view_s": inclusive("churn.view"),
        "churn.censor_s": inclusive("churn.censor"),
        **{f"self.{layer}_s": seconds for layer, seconds in own.items()},
        "trace.wall_s": root.duration_ns / 1e9,
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": (out.map_s - untraced_map_s) / untraced_map_s,
    }
    self_sum_ns = sum(tracer.self_ns())
    if self_sum_ns != root.duration_ns:
        out.fail(
            f"layer self times sum to {self_sum_ns} ns, traced wall is "
            f"{root.duration_ns} ns"
        )
    return metrics


def accounting(name: str, out: workloads.Outcome) -> tuple[int, int, str]:
    """``attempted``, ``failed`` and a one-line account of both.

    Probes given up under an injected fault plan are its designed
    outcome, so they count as attempted, not failed; a given-up probe
    without injected faults is a failure.
    """
    c = out.counters.get
    phase = out.phase or queries.QueryPhase()
    probes, gave_up = c("campaign.probes_issued", 0), c("campaign.probe_gave_up", 0)
    shards = c("exec.campaign.shards", 0) + c("exec.extract.blocks", 0)
    rollbacks = c("serve.snapshot.rollback", 0)
    quarantined = c("exec.shard.quarantine", 0)
    answered, raised, wrong = phase.answered, phase.raised, phase.wrong
    injected = out.faults_injected
    attempted = probes + answered + out.publishes + shards
    failed = raised + wrong + rollbacks + quarantined + (0 if injected else gave_up)
    line = (
        f"accounting {name}: probes issued {probes}, gave up {gave_up}"
        f"{' (injected faults)' if injected else ''}; queries answered "
        f"{answered - raised - wrong}, raised {raised}, wrong {wrong}; publishes "
        f"{out.publishes}, rollbacks {rollbacks}; shards {shards}, retries "
        f"{c('exec.shard.retry', 0)}, quarantined {quarantined}"
    )
    return attempted, failed, line


def _metrics_document(values: dict[str, float], table) -> dict[str, Any]:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in table}


def run_and_report(
    name: str, scale: str, seed: int, seconds: float, trace: bool, out_dir: Path
) -> int:
    ctx = workloads.Context(out_dir)
    try:
        out = workloads.run(name, scale, seed, seconds, ctx)
        if trace and not out.problems:
            untraced_map_s = out.map_s
            ctx.notes.clear()  # the traced pass repeats them
            tracer = spans.Tracer()
            tracer.install()
            try:
                out = workloads.run(name, scale, seed, seconds, ctx, tracer)
            finally:
                tracer.remove()
            leftover = spans.installed_wrappers()
            if leftover:
                out.fail(f"tracer wrappers left installed: {leftover}")
            metrics = per_layer(out, tracer, untraced_map_s)
            table = PER_LAYER
        else:
            metrics = end_to_end(out)
            table = END_TO_END
        workloads.check_batch_identity(name, scale, out, ctx)
    finally:
        ctx.close()
    attempted, failed, line = accounting(name, out)
    print(line)
    for note in ctx.notes:
        print(f"note {name}: {note}")
    if out.phase is not None and out.phase.answered:
        read = read_metrics(out.phase)
        print(
            f"queries {name}: {read['qps']:.0f} qps, p50 {read['p50_us']:.2f} us, "
            f"p99 {read['p99_us']:.2f} us over {out.phase.answered} samples in "
            f"{out.phase.seconds:.1f} s ({out.phase.answered // 100} above p99)"
        )
    if out.detection is not None:
        print(f"detection {name}: {json.dumps(out.detection, sort_keys=True)}")
    for problem in out.problems:
        print(f"CHECK FAILED {name}: {problem}")
    correct = not out.problems
    document = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": _metrics_document(metrics, table) if correct else {},
    }
    print(json.dumps(document))
    return 0 if correct else 1
