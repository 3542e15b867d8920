"""Deployment latency benchmark against a live lifecycle manager.

Each iteration is a full create/destroy cycle, run strictly sequentially.
The timed window spans sending the create request to receiving the READY
response. Failed iterations are recorded and excluded from the stats; more
than 10% failures aborts the run.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from .jsonhttp import RequestRejected, TransportUnavailable
from .manager import ManagerClient

__all__ = ["BenchError", "BenchResult", "run_benchmark"]


class BenchError(RuntimeError):
    """Raised when the measurements cannot be trusted."""


@dataclass
class BenchResult:
    iterations: list[tuple[int, float]]  # (index, deploy latency in seconds)
    payload_bytes: int  # size of the JSON create request body
    footprint_bytes: int  # memory held by one live twin instance
    failures: list[tuple[int, str]] = field(default_factory=list)

    def latencies(self) -> list[float]:
        return [latency for _, latency in self.iterations]

    def summary(self) -> dict[str, float]:
        values = self.latencies()
        if not values:
            raise BenchError("no successful iterations to summarize")
        mean = statistics.fmean(values)
        return {
            "mean": mean,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "coefficient_of_variation": statistics.pstdev(values) / mean if mean else 0.0,
        }

    def cdf(self) -> list[tuple[float, float]]:
        """(latency, cumulative fraction) points, latency ascending."""
        values = sorted(self.latencies())
        count = len(values)
        return [(value, (i + 1) / count) for i, value in enumerate(values)]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["iteration", "latency_seconds"])
        # str(float) round-trips exactly, so the summary is recomputable
        # from the file alone.
        writer.writerows(self.iterations)
        return out.getvalue()


def run_benchmark(
    client: ManagerClient,
    profile_id: str,
    bom_texts: list[str],
    iterations: int = 50,
    warmup: int = 1,
    build_payload: Optional[Callable[[], list[str]]] = None,
) -> BenchResult:
    """build_payload, when given, runs inside the timed window of every
    iteration (e.g. to include evidence collection in the measurement);
    otherwise the pre-built bom_texts are reused."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    body = {"profileId": profile_id, "boms": bom_texts}
    payload_bytes = len(json.dumps(body).encode("utf-8"))

    result = BenchResult(iterations=[], payload_bytes=payload_bytes, footprint_bytes=0)
    allowed_failures = iterations * 0.10
    # Same timing hygiene as the stdlib timeit: collect once, then keep the
    # collector out of the measured windows. The collection walks every live
    # object and leaves the caches cold, so the warm-up runs after it:
    # otherwise the first measured create pays for the walk.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(0, warmup)):
            descriptor = client.create(profile_id, bom_texts)
            client.destroy(descriptor["sdtId"])

        for index in range(iterations):
            started = time.perf_counter()
            try:
                texts = build_payload() if build_payload is not None else bom_texts
                descriptor = client.create(profile_id, texts)
                latency = time.perf_counter() - started
                sdt_id = descriptor["sdtId"]
                if result.footprint_bytes == 0:
                    result.footprint_bytes = client.footprint(sdt_id)
                client.destroy(sdt_id)
            except (TransportUnavailable, RequestRejected) as err:
                result.failures.append((index, str(err)))
                warnings.warn(f"benchmark iteration {index} failed: {err}", stacklevel=2)
                if len(result.failures) > allowed_failures:
                    raise BenchError(
                        f"{len(result.failures)} of {iterations} iterations failed"
                    ) from err
                continue
            result.iterations.append((index, latency))
    finally:
        if gc_was_enabled:
            gc.enable()
    return result
