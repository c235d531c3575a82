"""Per-layer metrics and the per-request attribution table.

Layer times come from the spans the program already emits into the
public :class:`~repro.obs.record.Recorder` sink (``service.solve`` ->
``engine.batch`` -> ``engine.fingerprint`` / ``engine.cache`` /
``engine.solve`` / ``engine.verify``), read from the combined journal
records, plus the timestamps the workload runners keep per request and the
``queue_wait_s`` / ``latency_s`` fields of each response.  Per request:

    send_lag + decode + queue_wait + service_time + loop_wait + encode = e2e

on the single service, and ``send_lag + hop + queue_wait + service_time
= e2e`` through the fleet, where ``hop`` is the coordinator's
``handle_line`` time not covered by the worker's ``latency_s``.
``service_time`` is then split into fingerprint, cache, solve, verify,
the rest of ``engine.batch`` (dedup and bookkeeping between stages), and
a residual no engine span covers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.service.protocol import parse_service_request

from workloads import FLEET_CONFIG, Pass
from traffic import Stream

ENGINE_STAGES = ("fingerprint", "cache", "solve", "verify")


@dataclass
class EngineCall:
    """One ``engine.batch`` span, reduced to what the metrics need."""

    total: float
    seconds: dict[str, float]
    hits: int
    misses: int
    verdict_hits: int
    verdict_misses: int
    solved: int
    stacked: int


def _engine_call(batch: "dict[str, Any]", by_index: "dict[int, dict]") -> EngineCall:
    seconds = dict.fromkeys(ENGINE_STAGES, 0.0)
    attrs: dict[str, dict] = {}
    stacked = 0
    for child in (by_index[i] for i in batch["children"]):
        stage = str(child["name"]).removeprefix("engine.")
        if stage in seconds:
            seconds[stage] += float(child["duration_s"])
            attrs[stage] = child["attributes"]
        if stage == "solve":
            stacked += sum(
                int(by_index[g]["attributes"].get("count", 0))
                for g in child["children"]
                if by_index[g]["name"] == "engine.stack"
            )
    cache, verify = attrs.get("cache", {}), attrs.get("verify", {})
    return EngineCall(
        total=float(batch["duration_s"]),
        seconds=seconds,
        hits=int(cache.get("memory_hits", 0)) + int(cache.get("disk_hits", 0)),
        misses=int(cache.get("misses", 0)),
        verdict_hits=int(verify.get("verdict_memory_hits", 0))
        + int(verify.get("verdict_disk_hits", 0)),
        verdict_misses=int(verify.get("verdict_misses", 0)),
        solved=int(attrs.get("solve", {}).get("jobs", 0)),
        stacked=stacked,
    )


def engine_calls(journal: "list[dict[str, Any]]") -> "tuple[dict[str, EngineCall], list[EngineCall]]":
    """Engine calls keyed by request id (served), and unparented ones in order."""
    spans = [r for r in journal if r.get("event") == "span"]
    by_index = {int(r["index"]): r for r in spans}
    served: dict[str, EngineCall] = {}
    offline: list[EngineCall] = []
    for record in spans:
        if record["name"] != "engine.batch":
            continue
        parent = by_index.get(record["parent"]) if record["parent"] is not None else None
        call = _engine_call(record, by_index)
        if parent is None:
            offline.append(call)
        elif parent["name"] == "service.solve":
            served[str(parent["attributes"]["request_id"])] = call
    return served, offline


def _ms(values: "list[float]") -> np.ndarray:
    return np.asarray(values, dtype=float) * 1e3


def _q(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass
class Attribution:
    """Per-request (or per-call) components, in ms, in table order."""

    title: str
    rows: "list[tuple[str, np.ndarray]]"
    total: np.ndarray

    def table(self) -> str:
        out = [
            f"attribution: {self.title} ({self.total.size} samples, ms)",
            f"  {'component':<16}{'mean':>10}{'p50':>10}{'p99':>10}{'share':>8}",
        ]
        whole = _mean(self.total)
        for name, values in self.rows + [("= e2e", self.total)]:
            out.append(
                f"  {name:<16}{_mean(values):>10.3f}{_q(values, 50):>10.3f}"
                f"{_q(values, 99):>10.3f}{_share(_mean(values), whole):>8.1%}"
            )
        return "\n".join(out)

    def to_dict(self) -> "dict[str, Any]":
        return {
            name.strip(): {"mean_ms": _mean(v), "p50_ms": _q(v, 50), "p99_ms": _q(v, 99)}
            for name, v in self.rows + [("e2e", self.total)]
        }


def _split(calls: "list[EngineCall]", covered_ms: np.ndarray) -> "list[tuple[str, np.ndarray]]":
    """Engine stage columns, the rest of each engine call, and the residual
    of ``covered_ms`` that no engine span covers (last row)."""
    stages = [
        (f"  {stage}", _ms([c.seconds[stage] for c in calls])) for stage in ENGINE_STAGES
    ]
    total = _ms([c.total for c in calls])
    return stages + [
        ("  other_engine", total - sum(values for _, values in stages)),
        ("  residual", covered_ms - total),
    ]


def serving_layers(
    workload: str,
    traced: Pass,
    docs: "list[dict[str, Any]]",
    stream: Stream,
    fleet: bool,
) -> "tuple[dict[str, float], Attribution]":
    """Layer metrics and attribution for ``svc_*`` and ``fleet_hot``."""
    served, _ = engine_calls(traced.journal or [])
    samples = traced.samples
    ids = [str(d.get("id")) for d in docs]
    missing = [i for i in ids if i not in served]
    if missing:
        raise ValueError(f"{len(missing)} timed requests have no engine span")
    calls = [served[i] for i in ids]
    lag = _ms([s.send - s.due for s in samples])
    queue = _ms([float(d["queue_wait_s"]) for d in docs])
    latency = _ms([float(d["latency_s"]) for d in docs])
    service = latency - queue
    e2e = _ms([s.done - s.due for s in samples])
    split = _split(calls, service)
    residual = split[-1][1]
    if fleet:
        hop = _ms([s.done - s.send for s in samples]) - latency
        decode = _offline_decode_ms(stream)
        encode = loop_wait = np.zeros(0)
        rows = [("send_lag", lag), ("hop", hop), ("queue_wait", queue),
                ("service_time", service), *split]
    else:
        decode = _ms([s.decoded - s.send for s in samples])
        loop_wait = _ms([s.handled - s.decoded for s in samples]) - latency
        encode = _ms([s.done - s.handled for s in samples])
        rows = [("send_lag", lag), ("decode", decode), ("queue_wait", queue),
                ("service_time", service), *split, ("loop_wait", loop_wait),
                ("encode", encode)]
    metrics = {
        "bench.send_lag_ms.p99": _q(lag, 99),
        "protocol.decode_ms.p50": _q(decode, 50),
        "protocol.request_kb.mean": float(
            np.mean([len(stream.templates[p]) for p in stream.picks]) / 1024
        ),
        "protocol.encode_ms.p50": _q(encode, 50),
        "service.queue_wait_ms.p50": _q(queue, 50),
        "service.queue_wait_ms.p99": _q(queue, 99),
        "service.time_ms.p50": _q(service, 50),
        "service.loop_wait_ms.mean": _mean(loop_wait),
        "engine.residual_share": _share(float(residual.sum()), float(service.sum())),
        "engine.proposals": float(
            sum(int(d.get("proposals", 0)) for d in docs if d["outcome"] in ("ok", "no_stable"))
        ),
    }
    metrics.update(_engine_metrics(calls))
    if fleet:
        metrics.update(_fleet_metrics(traced, docs, hop, latency))
    return metrics, Attribution(workload, rows, e2e)


def batch_layers(traced: Pass) -> "tuple[dict[str, float], Attribution]":
    """Layer metrics and attribution for ``batch_stacked`` (per engine call)."""
    _, calls = engine_calls(traced.journal or [])
    if len(calls) != len(traced.calls):
        raise ValueError(f"{len(traced.calls)} batch calls but {len(calls)} engine spans")
    e2e = _ms([end - start for start, end in traced.calls])
    rows = _split(calls, e2e)
    metrics = {
        "engine.residual_share": _share(float(rows[-1][1].sum()), float(e2e.sum())),
        "engine.proposals": float(sum(p for _, _, p in traced.rows)),
    }
    metrics.update(_engine_metrics(calls))
    return metrics, Attribution("batch_stacked, per engine call", rows, e2e)


def _engine_metrics(calls: "list[EngineCall]") -> "dict[str, float]":
    hits = sum(c.hits for c in calls)
    lookups = hits + sum(c.misses for c in calls)
    verdict_hits = sum(c.verdict_hits for c in calls)
    verdicts = verdict_hits + sum(c.verdict_misses for c in calls)
    metrics = {
        f"engine.{stage}_ms.mean": _mean(_ms([c.seconds[stage] for c in calls]))
        for stage in ENGINE_STAGES
    }
    metrics.update(
        {
            "engine.cache_hit_share": _share(hits, lookups),
            "engine.stack_share": _share(
                sum(c.stacked for c in calls), sum(c.solved for c in calls)
            ),
            "engine.verdict_hit_share": _share(verdict_hits, verdicts),
        }
    )
    return metrics


def _fleet_metrics(
    traced: Pass, docs: "list[dict[str, Any]]", hop: np.ndarray, worker: np.ndarray
) -> "dict[str, float]":
    routed = [
        traced.counters.get(f"fleet.routed.shard-{i}", 0)
        for i in range(FLEET_CONFIG.workers)
    ]
    return {
        "fleet.hop_ms.p50": _q(hop, 50),
        "fleet.worker_service_ms.p50": _q(worker, 50),
        "fleet.route_skew": _share(max(routed), float(np.mean(routed))),
        "fleet.shard_hit_share": _share(
            sum(1 for d in docs if d.get("from_cache")), len(docs)
        ),
        "fleet.crashes": float(traced.counters.get("fleet.crashes", 0)),
        "fleet.rerouted": float(traced.counters.get("fleet.rerouted", 0)),
        "fleet.lost_shard": float(traced.counters.get("fleet.lost_shard", 0)),
    }


def _offline_decode_ms(stream: Stream) -> np.ndarray:
    """Decode time of each timed fleet request, measured off the clock.

    The coordinator and the worker each decode every line inside
    ``handle_line``, where the benchmark cannot time them apart; the
    same lines are decoded here once per distinct template instead.
    """
    per_template = []
    for t in range(len(stream.templates)):
        line = stream.render(t, "decode")
        start = time.perf_counter()
        parse_service_request(line)
        per_template.append((time.perf_counter() - start) * 1e3)
    return np.asarray([per_template[p] for p in stream.picks])
