"""Workload runners: build each stack, warm it, drive it, tear it down.

The runners only call public entry points of the program under test —
:func:`~repro.service.protocol.parse_service_request`,
:meth:`~repro.service.pipeline.SolveService.handle`,
:func:`~repro.service.protocol.response_line`,
:meth:`~repro.fleet.coordinator.FleetCoordinator.handle_line` and
:meth:`~repro.engine.jobs.MatchingEngine.solve_many` — and time them
from outside.  Every timestamp is :func:`time.perf_counter`.

No benchmark span is ever held open across an ``await``: the tracer is
stack-based, so interleaved coroutines would close spans out of order.
Per-request boundaries are kept as plain timestamps on :class:`Sample`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from typing import Any, Awaitable, Callable

from repro.engine.jobs import MatchingEngine, SolveRequest
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.simfleet import FleetConfig, combined_journal_records
from repro.obs.journal import validate_journal
from repro.obs.record import Recorder
from repro.obs.sink import NULL_SINK
from repro.service.clock import RealClock
from repro.service.pipeline import ServiceConfig, SolveService
from repro.service.protocol import parse_service_request, response_line

from traffic import BATCH_WARM_SIZE, Stream

now = time.perf_counter

#: hard limits: a fleet worker that dies at start-up is respawned
#: forever by the coordinator, so readiness and drain must time out
#: instead of hanging the run.
SETUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
#: open-loop schedules start this far after the sender is ready.
LEAD_S = 0.05
#: closed-loop callers (the box has 2 cores).
CLIENTS = 2
#: jobs per batch set re-solved one at a time to check the stacked answers.
SPOT_CHECKS = 4

SERVICE_CONFIG = ServiceConfig(queue_capacity=256, workers=4)
FLEET_CONFIG = FleetConfig(workers=2, queue_capacity=256, shard_workers=4)


class BenchError(RuntimeError):
    """The workload could not be driven to completion."""


@dataclass
class Sample:
    """Boundary timestamps of one request, plus its response line.

    ``decoded`` / ``handled`` (decode finished, ``handle`` returned) are
    only recorded on the single-service path.
    """

    due: float
    send: float = 0.0
    decoded: float = 0.0
    handled: float = 0.0
    done: float = 0.0
    line: str = ""


@dataclass
class Pass:
    """Everything one timed pass of a workload produced."""

    setup_s: list[float]
    samples: list[Sample] = field(default_factory=list)
    warm: list[Sample] = field(default_factory=list)
    #: combined journal records (traced passes only).
    journal: "list[dict[str, Any]] | None" = None
    #: fleet coordinator counters accrued during the timed phase.
    counters: "dict[str, int]" = field(default_factory=dict)
    #: batch: (start, end) per engine call and the digest rows.
    calls: "list[tuple[float, float]]" = field(default_factory=list)
    rows: "list[tuple[str, str, int]]" = field(default_factory=list)
    errors: "list[str]" = field(default_factory=list)


Call = Callable[[str, Sample], Awaitable[str]]


def _service_call(service: SolveService) -> Call:
    async def call(line: str, sample: Sample) -> str:
        request = parse_service_request(line)
        sample.decoded = now()
        response = await service.handle(request)
        sample.handled = now()
        return response_line(response)

    return call


def _fleet_call(coordinator: FleetCoordinator) -> Call:
    async def call(line: str, sample: Sample) -> str:
        return await coordinator.handle_line(line)

    return call


async def _timed(
    call: Call, stream: Stream, i: int, due: "float | None", prefix: str = "r"
) -> Sample:
    line = stream.line(i, prefix)
    send = now()
    sample = Sample(due=send if due is None else due, send=send)
    sample.line = await call(line, sample)
    sample.done = now()
    return sample


async def open_loop(call: Call, stream: Stream) -> list[Sample]:
    """Send on the seeded Poisson schedule, whatever the completions."""
    loop = asyncio.get_running_loop()
    start = now() + LEAD_S
    tasks = []
    for i, offset in enumerate(stream.due_s):
        due = start + offset
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(_timed(call, stream, i, due)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(call: Call, stream: Stream) -> list[Sample]:
    """``CLIENTS`` callers, each sending its next request on a reply."""
    order = iter(range(len(stream)))
    samples: list[Sample] = [Sample(due=0.0)] * len(stream)

    async def client() -> None:
        for i in order:
            samples[i] = await _timed(call, stream, i, None)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return samples


async def _warm(call: Call, stream: Stream) -> list[Sample]:
    return list(
        await asyncio.gather(
            *(_timed(call, stream, i, None, prefix="w") for i in range(len(stream)))
        )
    )


def _run_timeout(seconds: float) -> float:
    return 3.0 * seconds + 60.0


async def _bounded(awaitable: Awaitable[Any], timeout: float, what: str) -> Any:
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError:
        raise BenchError(f"{what} did not finish within {timeout:.0f} s") from None


async def run_service(
    timed: Stream,
    warm: Stream,
    *,
    closed: bool,
    seconds: float,
    reps: int,
    traced: bool,
) -> Pass:
    """Drive one in-process ``SolveService`` on the real clock."""
    result = Pass(setup_s=[])
    for rep in range(reps):
        start = now()
        recorder = Recorder() if traced else None
        engine = MatchingEngine(backend="serial", sink=recorder)
        service = SolveService(
            engine,
            config=SERVICE_CONFIG,
            clock=RealClock(),
            sink=recorder if recorder is not None else NULL_SINK,
        )
        service.start()
        result.warm = await _bounded(
            _warm(_service_call(service), warm), SETUP_TIMEOUT_S, "warm phase"
        )
        result.setup_s.append(now() - start)
        if rep < reps - 1:
            await _bounded(service.drain(), DRAIN_TIMEOUT_S, "service drain")
    call = _service_call(service)
    phase = closed_loop(call, timed) if closed else open_loop(call, timed)
    result.samples = await _bounded(phase, _run_timeout(seconds), "timed phase")
    await _bounded(service.drain(), DRAIN_TIMEOUT_S, "service drain")
    lost = service.stats()["lost"]
    if lost:
        result.errors.append(f"service lost {lost} admitted requests")
    if recorder is not None:
        result.journal = combined_journal_records(
            [("service", [span.to_dict() for span in recorder.tracer.spans])],
            metrics=recorder.metrics,
            meta={"bench": "service"},
        )
        validate_journal(result.journal)
    return result


def reap_children() -> None:
    """Stop and join every child process still alive.

    That includes the resource tracker the ``spawn`` start method
    launches on the side, which is no ``Process`` object and would
    otherwise outlive the run.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


async def _fleet_down(coordinator: FleetCoordinator, result: Pass) -> None:
    try:
        await _bounded(coordinator.drain(), DRAIN_TIMEOUT_S, "fleet drain")
    finally:
        reap_children()
    lost = coordinator.stats()["lost"]
    if lost:
        result.errors.append(f"fleet lost {lost} dispatched requests")
    crashes = coordinator.merged_metrics().count("fleet.crashes")
    if crashes:
        result.errors.append(f"fleet saw {crashes} worker crashes")


async def run_fleet(
    timed: Stream, warm: Stream, *, seconds: float, reps: int
) -> Pass:
    """Drive a real multi-process ``FleetCoordinator`` through ``handle_line``.

    Workers always record spans (the coordinator gives them a recorder),
    so the traced and untraced fleet passes are driven identically.
    """
    result = Pass(setup_s=[])
    for rep in range(reps):
        start = now()
        coordinator = FleetCoordinator(FLEET_CONFIG)
        try:
            await coordinator.start()
            result.warm = await _bounded(
                _warm(_fleet_call(coordinator), warm),
                SETUP_TIMEOUT_S,
                "fleet readiness (warm phase)",
            )
            routed = coordinator.sink.metrics
            idle = [
                f"shard-{i}"
                for i in range(FLEET_CONFIG.workers)
                if routed.count(f"fleet.responded.shard-{i}") == 0
            ]
            if idle:
                raise BenchError(f"shards never answered the warm phase: {idle}")
        except BaseException:
            await _fleet_down(coordinator, result)
            raise
        result.setup_s.append(now() - start)
        if rep < reps - 1:
            await _fleet_down(coordinator, result)
    warm_counters = coordinator.sink.metrics.counters()
    try:
        result.samples = await _bounded(
            open_loop(_fleet_call(coordinator), timed),
            _run_timeout(seconds),
            "timed phase",
        )
    finally:
        await _fleet_down(coordinator, result)
    # the timed phase's share of each coordinator counter
    result.counters = {
        name: value - warm_counters.get(name, 0)
        for name, value in coordinator.sink.metrics.counters().items()
    }
    result.journal = coordinator.journal_records(meta={"bench": "fleet"})
    validate_journal(result.journal)
    return result


def run_batch(
    sets: "list[list[SolveRequest]]",
    *,
    calls: int,
    seconds: float,
    reps: int,
    traced: bool,
) -> Pass:
    """Offline stacked solving: a fresh serial engine per 256-job call."""
    result = Pass(setup_s=[])
    for _ in range(reps):
        start = now()
        MatchingEngine(backend="serial").solve_many(sets[0][:BATCH_WARM_SIZE])
        result.setup_s.append(now() - start)
    recorder = Recorder() if traced else None
    first: dict[int, list] = {}
    deadline = now() + _run_timeout(seconds)
    for c in range(calls):
        batch = sets[c % len(sets)]
        engine = MatchingEngine(backend="serial", sink=recorder)
        start = now()
        results = engine.solve_many(batch)
        result.calls.append((start, now()))
        result.rows.extend((r.fingerprint, r.status, r.proposals) for r in results)
        first.setdefault(c % len(sets), results[:SPOT_CHECKS])
        if now() > deadline:
            raise BenchError(
                f"batch calls did not finish within {_run_timeout(seconds):.0f} s"
            )
    # spot check: the stacked answers equal a per-instance solve and verify
    reference = MatchingEngine(backend="serial")
    for s, stacked in sorted(first.items()):
        for request, got in zip(sets[s], stacked):
            want = reference.submit(replace(request, verify=True))
            if dict(got.payload) != dict(want.payload) or want.stable is not True:
                result.errors.append(
                    f"batch set {s}: stacked result {got.fingerprint[:12]} "
                    "differs from the per-instance solve or is unstable"
                )
    if recorder is not None:
        result.journal = combined_journal_records(
            [("engine", [span.to_dict() for span in recorder.tracer.spans])],
            metrics=recorder.metrics,
            meta={"bench": "batch"},
        )
        validate_journal(result.journal)
    return result


def reference_rows(stream: Stream) -> "list[tuple[str, str, int]]":
    """Digest rows for ``stream`` from a direct in-process engine.

    Used on the hot workloads, whose requests repeat a few hundred
    distinct shapes: solving each once without the service or fleet in
    the way gives the digest both serving paths must reproduce.
    """
    engine = MatchingEngine(backend="serial")
    requests = [
        parse_service_request(stream.render(t, "ref")).solve
        for t in range(len(stream.templates))
    ]
    results = engine.solve_many(requests)
    return [
        (results[t].fingerprint, results[t].status, results[t].proposals)
        for t in stream.picks
    ]
