"""Print the final-map fingerprints of the ``repro`` tree on ``PYTHONPATH``.

One line per map, ``<label> <fingerprint>``, in a fixed order:

* the batch map (campaign + CFS, then ``build_snapshot``) at small
  scale for seeds 0-4 and at default scale for seed 0, each followed by
  a SHA-256 over its campaign's traces (every field, RTTs to the bit:
  a change in the last bit of a delay rarely moves a map);
* every epoch snapshot of the churned stream at the outage profile's
  seed (default scale, 6 epochs, moderate churn, measurement faults at
  intensity 1.0, degraded-mode CFS), followed by its detection scores.

Two trees that print the same lines compute the same maps.  The script
uses only the public API, so it runs unchanged against older trees:

    PYTHONPATH=src python scripts/fingerprints.py

``scripts/identity_against.sh`` runs it against two trees and compares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.api import (
    ChurnConfig,
    PipelineConfig,
    build_environment,
    build_snapshot,
    config_fingerprint,
    plan_churn,
)
from repro.obs import Instrumentation
from repro.serve.outage import DEFAULT_SEED, measurement_faults, score_detection
from repro.serve.service import MapService

CHURN_EPOCHS = 6


def trace_digest(traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        hops = [
            (
                hop.ttl,
                hop.address,
                None if hop.rtt_ms is None else hop.rtt_ms.hex(),
                hop.router_id,
            )
            for hop in trace.hops
        ]
        fields = (
            trace.source_id,
            trace.platform,
            trace.src_asn,
            trace.dst_address,
            trace.reached,
            hops,
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def batch(scale: str, seed: int) -> list[str]:
    config = PipelineConfig.for_scale(scale, seed=seed)
    env = build_environment(config=config)
    corpus = env.run_campaign()
    campaign = trace_digest(list(corpus))
    result = env.run_cfs(corpus)
    snapshot = build_snapshot(
        result,
        epoch=0,
        final=True,
        seed=config.seed,
        config_fingerprint=config_fingerprint(config),
        traces_ingested=len(corpus),
    )
    return [
        f"batch {scale} seed={seed} {snapshot.fingerprint}",
        f"campaign-traces {scale} seed={seed} {campaign}",
    ]


def churned_stream(seed: int) -> list[str]:
    config = PipelineConfig.for_scale("default", seed=seed)
    config = dataclasses.replace(
        config,
        faults=measurement_faults(1.0),
        cfs=config.cfs.replace(degraded_mode=True),
    )
    service = MapService(config, instrumentation=Instrumentation())
    plan = plan_churn(
        service.environment.topology, CHURN_EPOCHS, ChurnConfig.moderate(), seed
    )
    handle = service.run_stream(CHURN_EPOCHS, churn=plan)
    lines = [
        f"churn default seed={seed} epoch={epoch} {snapshot.fingerprint}"
        for epoch, snapshot in enumerate(handle.snapshots)
    ]
    scores = score_detection(
        plan,
        service.detector.reports,
        grace=service.disruption_policy.confirm_epochs + 1,
    )
    lines.append(
        f"churn default seed={seed} detection {json.dumps(scores, sort_keys=True)}"
    )
    return lines


def main() -> None:
    runs = [("small", seed) for seed in range(5)] + [("default", 0)]
    for scale, seed in runs:
        for line in batch(scale, seed):
            print(line, flush=True)
    for line in churned_stream(DEFAULT_SEED):
        print(line, flush=True)


if __name__ == "__main__":
    main()
