#!/usr/bin/env python
"""Smoke test of the online planning daemon — the CI `service-smoke` job.

Boots a real server process via ``repro-usep serve`` (i.e. ``python -m
repro.cli serve``), fires a mixed batch of requests at it over real
HTTP — valid solves, a repeat that must return the first solve's
plan, malformed JSON, a structurally invalid instance, an oversize
body, an unknown algorithm, a past-deadline request — and asserts the
status-code distribution the API contract promises.  The batch opens a
fresh connection per request; a kept-alive phase then sends 30
``GET /healthz`` and the same repeat solve on one held connection, and
fails if the healthz median reaches 20 ms (a reply stalled by Nagle's
algorithm waits about 40 ms for the client's delayed ACK).  The final ``/stats`` snapshot is
written to disk so CI can upload it as an artifact.  Last, SIGTERM
must drain the daemon to exit code 0.

Usage::

    python tools/serve_smoke.py [--stats-out serve_stats.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import sys
import time
from urllib.parse import urlsplit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.io import instance_to_dict  # noqa: E402
from repro.paper_example import build_example_instance  # noqa: E402
from repro.service.admission import DISPOSITIONS  # noqa: E402
from repro.service.router import ServeDaemon, request_json  # noqa: E402

KEPT_ALIVE_REQUESTS = 30
KEPT_ALIVE_MEDIAN_LIMIT_S = 0.020


def same_plan(reply, first) -> bool:
    """Whether a repeat solve returned the first solve's plan."""
    return (reply.get("schedules"), reply.get("utility")) == (
        first.get("schedules"), first.get("utility"),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--stats-out",
        default="serve_stats.json",
        help="where to write the final /stats snapshot (CI artifact)",
    )
    args = parser.parse_args(argv)

    failures = []

    def check(label, got, want):
        verdict = "ok" if got == want else f"FAIL (wanted {want})"
        print(f"  {label:36s} -> {got} {verdict}")
        if got != want:
            failures.append(label)

    with ServeDaemon(["--max-body-bytes", "65536"]) as daemon:
        base = daemon.base_url
        instance = instance_to_dict(build_example_instance())
        valid = {"instance": instance, "algorithm": "DeDP", "deadline_s": 10}

        print("mixed batch:")
        status, first = request_json(base, "/solve", payload=valid)
        check("valid solve", status, 200)
        if status == 200 and not first.get("verified"):
            failures.append("valid solve not oracle-verified")

        status, body = request_json(base, "/solve", payload=valid)
        check("repeat solve", status, 200)
        if status == 200 and not same_plan(body, first):
            failures.append("repeat solve planned differently")

        status, _ = request_json(base, "/solve", raw_body=b"{definitely not json")
        check("malformed JSON", status, 400)

        broken = json.loads(json.dumps(valid))
        broken["instance"]["events"][0]["capacity"] = "lots"
        status, body = request_json(base, "/solve", payload=broken)
        check("invalid instance", status, 400)
        if status == 400 and "events[0].capacity" not in body.get("detail", ""):
            failures.append("invalid-instance detail lacks JSON path")

        status, _ = request_json(
            base, "/solve",
            raw_body=b'{"instance": ' + b" " * 70000 + b"{}}",
        )
        check("oversize body", status, 413)

        status, _ = request_json(
            base, "/solve", payload={**valid, "algorithm": "Clairvoyant"}
        )
        check("unknown algorithm", status, 400)

        status, body = request_json(
            base, "/solve", payload={**valid, "deadline_s": 1e-6}
        )
        check("past-deadline request", status, 503)
        if status == 503 and not body.get("retry_after"):
            failures.append("past-deadline shed lacks retry_after")

        for path, want in (("/healthz", 200), ("/readyz", 200)):
            status, _ = request_json(base, path)
            check(f"GET {path}", status, want)

        print("kept-alive phase:")
        parts = urlsplit(base)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
        try:
            conn.connect()
            sock = conn.sock
            latencies = []
            for _ in range(KEPT_ALIVE_REQUESTS):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                latencies.append(time.perf_counter() - started)
                if resp.status != 200:
                    failures.append(f"kept-alive GET /healthz got {resp.status}")
            median = statistics.median(latencies)
            print(
                f"  {KEPT_ALIVE_REQUESTS} x GET /healthz median "
                f"{median * 1e3:.1f} ms (limit {KEPT_ALIVE_MEDIAN_LIMIT_S * 1e3:.0f} ms)"
            )
            if median >= KEPT_ALIVE_MEDIAN_LIMIT_S:
                failures.append("kept-alive GET /healthz median over the limit")
            conn.request(
                "POST", "/solve", body=json.dumps(valid).encode(),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            check("kept-alive repeat solve", resp.status, 200)
            if resp.status == 200 and not same_plan(body, first):
                failures.append("kept-alive repeat solve planned differently")
            check("kept-alive connection held", conn.sock is sock, True)
        finally:
            conn.close()

        status, stats = request_json(base, "/stats")
        check("GET /stats", status, 200)
        counters = stats.get("counters", {})
        total = sum(counters.get(k, 0) for k in DISPOSITIONS)
        check("stats counters sum to received", total, counters.get("received"))

        with open(args.stats_out, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
        print(f"stats snapshot written to {args.stats_out}")
    check("SIGTERM drained the daemon to exit", daemon.exit_code, 0)

    if failures:
        print(f"\nFAILED: {failures}")
        return 1
    print("\nservice smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
