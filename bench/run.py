"""Real-clock end-to-end benchmark of the serving stack and stacked solving.

Usage, from the repository root::

    python3 bench/run.py [--seed S] [--seconds T] [--out results.json] [--trace]
    python3 bench/run.py --workload svc_hot --seed S --seconds T --trace 0|1

Without ``--workload`` every workload runs in a fresh subprocess and a
summary table is printed; ``--trace`` adds a traced run per workload.
With ``--workload`` one workload runs in this process and the last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
drives the workload twice at half length on the same seed, untraced and
then traced, so ``trace.overhead_share`` compares identical traffic.

Exit status is 0 only when every output check passed.  See
bench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("svc_hot", "svc_cold", "fleet_hot", "batch_stacked")
#: set-ups per untraced run; setup_s reports their median.
SETUP_REPS = 3
RESIDUAL_LIMIT = 0.10
DETAIL_TAG = "bench-detail "

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import traffic  # noqa: E402
import workloads  # noqa: E402


def _spec() -> "dict[str, Any]":
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(spec: "dict[str, Any]", trace: bool) -> "dict[str, str]":
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


class Run:
    """One workload invocation: drive, check, measure."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        # a traced run splits its length between an untraced and a traced pass
        self.scale = seconds / 2 if trace else seconds
        self.errors: list[str] = []
        if workload == "batch_stacked":
            self.sets = traffic.batch_sets(seed)
            self.stream = self.warm = None
        elif workload == "svc_cold":
            self.stream, self.warm = traffic.cold_stream(seed, self.scale)
        else:
            self.stream, self.warm = traffic.hot_stream(seed, self.scale)

    def drive(self, reps: int, traced: bool):
        if self.workload == "batch_stacked":
            return workloads.run_batch(
                self.sets,
                calls=traffic.batch_calls(self.scale),
                seconds=self.scale,
                reps=reps,
                traced=traced,
            )
        if self.workload == "fleet_hot":
            coro = workloads.run_fleet(
                self.stream, self.warm, seconds=self.scale, reps=reps
            )
        else:
            coro = workloads.run_service(
                self.stream,
                self.warm,
                closed=self.workload == "svc_cold",
                seconds=self.scale,
                reps=reps,
                traced=traced,
            )
        try:
            return asyncio.run(coro)
        finally:
            workloads.reap_children()

    # ------------------------------------------------------------------
    # output checks
    # ------------------------------------------------------------------

    def check(self, result) -> "tuple[list[dict[str, Any]], str, int, int]":
        """Check one pass; returns (timed docs, digest, attempted, failed)."""
        self.errors.extend(result.errors)
        if self.workload == "batch_stacked":
            failed = sum(1 for _, status, _ in result.rows if status != "ok")
            return [], traffic.digest(result.rows), len(result.rows), failed
        for sample in result.warm:
            outcome = json.loads(sample.line).get("outcome")
            if outcome not in ("ok", "no_stable"):
                self.errors.append(f"warm request answered {outcome!r}")
        docs = [json.loads(sample.line) for sample in result.samples]
        rows, failed = [], 0
        for i, doc in enumerate(docs):
            if doc.get("id") != f"r{i:06d}":
                self.errors.append(f"response {i} carries id {doc.get('id')!r}")
            if doc.get("outcome") not in ("ok", "no_stable"):
                failed += 1
                continue
            rows.append((doc["fingerprint"], doc["status"], int(doc["proposals"])))
            solver, verify = self.stream.kind(i)
            if verify and doc["status"] == "ok" and solver in ("kary", "priority"):
                if doc.get("stable") is not True:
                    self.errors.append(f"verified {solver} response {doc['id']} not stable")
        if failed:
            self.errors.append(f"{failed} of {len(docs)} requests failed")
        return docs, traffic.digest(rows), len(docs), failed

    def check_digest(self, digest: str) -> None:
        if self.workload in ("svc_hot", "fleet_hot"):
            want = traffic.digest(workloads.reference_rows(self.stream))
            if digest != want:
                self.errors.append("digest differs from the direct-engine reference")
        recorded = json.loads((BENCH_DIR / "digests.json").read_text())
        want = recorded.get(self.workload, {}).get(f"{self.seed}:{self.scale:g}")
        if want is not None and want != digest:
            self.errors.append(f"digest {digest[:16]} differs from recorded {want[:16]}")

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def intervals(self, result) -> np.ndarray:
        """(start, end, items) per request or engine call, in send order."""
        if self.workload == "batch_stacked":
            return np.asarray(
                [(start, end, traffic.BATCH_SIZE) for start, end in result.calls]
            )
        return np.asarray([(s.due, s.done, 1) for s in result.samples])

    def timing(self, result) -> "dict[str, float]":
        """Throughput and latency quantiles over the whole timed phase."""
        rows = self.intervals(result)
        start, end, items = rows[:, 0], rows[:, 1], rows[:, 2]
        latency = (end - start) * 1e3
        return {
            "throughput_rps": items.sum() / (end.max() - start.min()),
            "latency_p50_ms": float(np.percentile(latency, 50)),
            "latency_p99_ms": float(np.percentile(latency, 99)),
        }

    def end_to_end(self, result, attempted: int, failed: int) -> "dict[str, float]":
        return {
            "setup_s": statistics.median(result.setup_s),
            **self.timing(result),
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": _peak_rss_mb(self.workload == "fleet_hot"),
        }

    def per_layer(self, plain, traced, docs, units) -> "tuple[dict[str, float], Any]":
        # a layer the workload never crosses reads 0
        absent = {"fleet"} if self.workload != "fleet_hot" else set()
        if self.workload == "batch_stacked":
            absent |= {"bench", "protocol", "service"}
            metrics, table = layers.batch_layers(traced)
        else:
            metrics, table = layers.serving_layers(
                self.workload, traced, docs, self.stream, self.workload == "fleet_hot"
            )
            if metrics["engine.residual_share"] > RESIDUAL_LIMIT:
                self.errors.append(
                    f"engine.residual_share {metrics['engine.residual_share']:.3f} "
                    f"exceeds {RESIDUAL_LIMIT}"
                )
        base = self.timing(plain)["latency_p50_ms"]
        metrics["trace.overhead_share"] = (
            self.timing(traced)["latency_p50_ms"] - base
        ) / base
        for name in units:
            if name.split(".")[0] in absent:
                metrics.setdefault(name, 0.0)
        return metrics, table

    def execute(self) -> "dict[str, Any]":
        spec = _spec()
        units = _units(spec, self.trace)
        plain = self.drive(1 if self.trace else SETUP_REPS, traced=False)
        docs, digest, attempted, failed = self.check(plain)
        self.check_digest(digest)
        table = None
        if self.trace:
            traced = self.drive(1, traced=True)
            traced_docs, traced_digest, _, _ = self.check(traced)
            if traced_digest != digest:
                self.errors.append("traced pass digest differs from the untraced pass")
            values, table = self.per_layer(plain, traced, traced_docs, units)
        else:
            values = self.end_to_end(plain, attempted, failed)
        if set(values) != set(units):
            self.errors.append(
                f"emitted metrics {sorted(set(values) ^ set(units))} disagree "
                "with BENCHMARK.json"
            )
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.scale,
            "trace": int(self.trace),
            "digest": digest,
            "samples": len(self.intervals(plain)),
            "attribution": table.to_dict() if table is not None else None,
            "table": table.table() if table is not None else None,
            "errors": self.errors,
            "correct": not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
                if name in values
            },
        }


def _print_detail(detail: "dict[str, Any]") -> None:
    print(
        f"{detail['workload']}: seed {detail['seed']}, {detail['seconds']:g} s, "
        f"trace {detail['trace']}, {detail['attempted']} attempted, "
        f"{detail['failed']} failed, {detail['samples']} latency samples"
    )
    for name, metric in detail["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    if detail["table"]:
        print(detail["table"])
    print(f"  digest {detail['digest']}")
    for error in detail["errors"]:
        print(f"  ERROR {error}")


def run_one(args: argparse.Namespace) -> int:
    detail = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    _print_detail(detail)
    summary = {k: v for k, v in detail.items() if k != "table"}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(DETAIL_TAG + json.dumps(summary))
    print(
        json.dumps(
            {key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if detail["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; a summary; cross-workload checks."""
    details: dict[str, dict[str, Any]] = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout.split(DETAIL_TAG)[0])
            sys.stderr.write(done.stderr)
            tagged = [l for l in done.stdout.splitlines() if l.startswith(DETAIL_TAG)]
            if done.returncode != 0 or not tagged:
                status = 1
            if tagged:
                details[f"{workload}.trace{trace}"] = json.loads(tagged[-1][len(DETAIL_TAG):])
    hot = [details.get(f"{w}.trace0", {}).get("digest") for w in ("svc_hot", "fleet_hot")]
    if hot[0] != hot[1]:
        print(f"ERROR fleet_hot digest {hot[1]} != svc_hot digest {hot[0]}")
        status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    print("summary (end-to-end, untraced):")
    for workload in WORKLOADS:
        detail = details.get(f"{workload}.trace0")
        if detail is None:
            print(f"  {workload:<14} no result")
            continue
        cells = ", ".join(
            f"{name} {m['value']:.4g} {m['unit']}" for name, m in detail["metrics"].items()
        )
        print(f"  {workload:<14} {'ok ' if detail['correct'] else 'BAD'} {cells}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write every run's details here as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
