"""Seeded traffic for the four benchmark workloads.

Everything here is a pure function of ``(seed, seconds)``: the same pair
always yields the same request lines in the same order, which is what
makes the per-workload output digest repeat exactly across runs.

Instances come from :func:`repro.model.generators.random_instance`
(uniform random complete preferences, the *Random Stable Matchings*
ensemble) and reach the program under test only as wire-protocol lines
built by :func:`repro.service.protocol.request_line`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.engine.jobs import SolveRequest
from repro.model.generators import random_instance
from repro.service.pipeline import ServiceRequest
from repro.service.protocol import request_line

#: open-loop arrival rate of ``svc_hot`` / ``fleet_hot``.
HOT_RATE_RPS = 150.0
#: closed-loop pace ``svc_cold`` is sized by (requests = pace x seconds).
COLD_PACE_RPS = 100.0
#: ``batch_stacked`` engine calls per second of run length.
BATCH_CALLS_PER_S = 1.6

HOT_POOL = 48
ZIPF_S = 1.1
SHAPES = ((3, 16), (3, 32), (4, 16), (4, 32))
SOLVER_MIX = ("kary", "kary", "priority", "binary")
DEADLINE_S = 5.0
#: share of ``svc_cold`` requests replaced by a large binary solve.
COLD_BIG_SHARE = 0.02
COLD_BIG_SHAPE = (3, 64)

BATCH_SETS = 8
BATCH_SIZE = 256
BATCH_SHAPE = (3, 32)
#: warm-up batch size: 64 x 32 reaches BATCH_CROSSOVER_WORK, so it stacks.
BATCH_WARM_SIZE = 64

#: request-id placeholder; request ids are filled in at send time so a
#: repeated request shape is serialized once.
_ID_SLOT = json.dumps("@id@")


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _template(instance, solver: str, verify: bool, client: str) -> str:
    request = ServiceRequest(
        request_id="@id@",
        solve=SolveRequest(instance=instance, solver=solver, verify=verify),
        client=client,
        deadline_s=DEADLINE_S,
    )
    return request_line(request)


@dataclass(frozen=True)
class Stream:
    """One workload's requests: shared line templates plus a pick list.

    Request ``i`` is ``templates[picks[i]]`` with its id filled in;
    ``kinds[t]`` is template ``t``'s (solver, verify); ``due_s`` holds
    open-loop due offsets (empty for a closed loop).
    """

    templates: tuple[str, ...]
    kinds: tuple[tuple[str, bool], ...]
    picks: tuple[int, ...]
    due_s: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.picks)

    def render(self, template: int, request_id: str) -> str:
        return self.templates[template].replace(_ID_SLOT, json.dumps(request_id), 1)

    def line(self, i: int, prefix: str = "r") -> str:
        return self.render(self.picks[i], f"{prefix}{i:06d}")

    def kind(self, i: int) -> "tuple[str, bool]":
        return self.kinds[self.picks[i]]


def hot_pool(seed: int) -> list:
    """The 48-instance pool ``svc_hot`` and ``fleet_hot`` draw from.

    Shapes cycle with popularity rank instead of being drawn, so the
    seed changes preference contents but not how much of the traffic
    each (k, n) carries: a hot request's cost is set by its size.
    """
    rng = _rng(seed, 1)
    return [
        random_instance(*SHAPES[i % len(SHAPES)], seed=int(rng.integers(2**31)))
        for i in range(HOT_POOL)
    ]


def hot_stream(seed: int, seconds: float) -> "tuple[Stream, Stream]":
    """The timed open-loop stream and its warm stream.

    Zipf(s=1.1) draws over the pool, the kary:kary:priority:binary solver
    mix, verify on half the requests, seeded Poisson arrivals.  The warm
    stream sends each distinct (instance, solver) of the timed stream once
    with ``verify`` on, so every timed request is a cache hit.
    """
    count = max(1, round(HOT_RATE_RPS * seconds))
    rng = _rng(seed, 2)
    weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_S
    draws = rng.choice(HOT_POOL, size=count, p=weights / weights.sum())
    solvers = rng.integers(len(SOLVER_MIX), size=count)
    verify = rng.random(count) < 0.5
    # Poisson gaps, rescaled so every seed's schedule spans count / rate
    gaps = rng.exponential(1.0, count)
    due = np.cumsum(gaps) * (count / HOT_RATE_RPS / gaps.sum())
    keys = [
        (int(p), SOLVER_MIX[int(s)], bool(v))
        for p, s, v in zip(draws, solvers, verify)
    ]
    shapes = sorted(set(keys))
    index = {key: i for i, key in enumerate(shapes)}
    pool = hot_pool(seed)
    timed = Stream(
        templates=tuple(_template(pool[p], s, v, "open") for p, s, v in shapes),
        kinds=tuple((s, v) for _, s, v in shapes),
        picks=tuple(index[key] for key in keys),
        due_s=tuple(float(d) for d in due),
    )
    pairs = sorted({(p, s) for p, s, _ in keys})
    warm = Stream(
        templates=tuple(_template(pool[p], s, True, "warm") for p, s in pairs),
        kinds=tuple((s, True) for _, s in pairs),
        picks=tuple(range(len(pairs))),
    )
    return timed, warm


def _cold_instance(rng: np.random.Generator):
    if rng.random() < COLD_BIG_SHARE:
        k, n = COLD_BIG_SHAPE
        solver = "binary"
    else:
        k, n = SHAPES[int(rng.integers(len(SHAPES)))]
        solver = SOLVER_MIX[int(rng.integers(len(SOLVER_MIX)))]
    instance = random_instance(k, n, seed=int(rng.integers(2**31)))
    return instance, solver, bool(rng.random() < 0.5)


def cold_stream(seed: int, seconds: float) -> "tuple[Stream, Stream]":
    """The closed-loop stream of unique instances, and a small warm stream.

    Every timed request carries its own freshly drawn instance, so the
    cache never hits.  The warm stream exercises each shape x solver once
    (plus the large binary shape) on instances drawn from another stream.
    """
    count = max(1, round(COLD_PACE_RPS * seconds))
    rng = _rng(seed, 3)
    timed, timed_kinds = [], []
    for _ in range(count):
        instance, solver, verify = _cold_instance(rng)
        timed.append(_template(instance, solver, verify, "closed"))
        timed_kinds.append((solver, verify))
    warm_rng = _rng(seed, 4)
    warm, warm_kinds = [], []
    for k, n in SHAPES + (COLD_BIG_SHAPE,):
        for solver in ("kary", "priority", "binary"):
            instance = random_instance(k, n, seed=int(warm_rng.integers(2**31)))
            warm.append(_template(instance, solver, True, "warm"))
            warm_kinds.append((solver, True))
    return (
        Stream(tuple(timed), tuple(timed_kinds), tuple(range(count))),
        Stream(tuple(warm), tuple(warm_kinds), tuple(range(len(warm)))),
    )


def batch_sets(seed: int) -> "list[list[SolveRequest]]":
    """Eight pre-generated batches of 256 same-shape chain-tree kary jobs."""
    rng = _rng(seed, 5)
    k, n = BATCH_SHAPE
    return [
        [
            SolveRequest(
                instance=random_instance(k, n, seed=int(rng.integers(2**31))),
                solver="kary",
                tree="chain",
            )
            for _ in range(BATCH_SIZE)
        ]
        for _ in range(BATCH_SETS)
    ]


def batch_calls(seconds: float) -> int:
    return max(1, round(BATCH_CALLS_PER_S * seconds))


def digest(rows: "Iterable[tuple[str, str, int]]") -> str:
    """Order-free digest over (fingerprint, status, proposals) rows."""
    h = hashlib.sha256()
    for fp, status, proposals in sorted(rows):
        h.update(f"{fp} {status} {proposals}\n".encode())
    return h.hexdigest()
