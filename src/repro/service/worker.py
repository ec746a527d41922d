"""One supervised worker of the multi-process planning service.

A worker is a full :class:`~repro.service.server.PlanningServer` — the
same admission control, ladder, oracle gate and stateful instance
endpoints as the single-process daemon — that always solves in its own
process (``in_process=True``): a registered instance's schedule memo
then survives from one request to the next, so a by-id re-solve after
churn reschedules only the users whose candidate view changed.  The
solvers stop at a cooperative deadline; a solve that ignores it turns
``/healthz`` into 503 ``stuck`` and the supervisor restarts the worker;
``--memory-limit-mb`` caps the whole worker, set once at boot.  Plus
the three things that make it a good fleet citizen:

* **Identity**: ``--worker-id`` namespaces its instance ids
  (``w0-inst-000000``) and is echoed in ``/healthz`` / ``/stats`` so
  the router and the chaos tooling can tell shards apart.
* **Durability**: ``--journal-dir`` turns on per-instance journals; at
  boot the worker replays whatever journals the directory holds and
  resumes serving the same ``instance_id``s at the same versions
  (:meth:`~repro.service.server.PlanningServer.recover_instances`).
* **Graceful death**: SIGTERM/SIGINT flip readiness off, let in-flight
  solves finish, then exit 0 — the supervisor's rolling drain and the
  single-process CLI both ride on :func:`serve_until_signalled`.

Run directly (the supervisor does exactly this)::

    python -m repro.service.worker --port 0 --worker-id w0 \
        --journal-dir /var/lib/usep/journals/w0

The worker announces ``worker <id> serving on http://host:port`` on
stdout; the supervisor parses that line to learn the ephemeral port.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

from .admission import AdmissionConfig
from .executor import apply_memory_limit
from .faults import install_disk_from_env
from .ladder import DEFAULT_LADDER, parse_ladder
from .server import PlanningServer, ServerConfig, make_server

#: Default journal compaction cadence (applied batches between
#: ``snapshot`` records).  Low enough that crash recovery replays at
#: most a few dozen mutations, high enough that compaction cost (one
#: full instance re-encode) stays far off the mutate hot path.
DEFAULT_SNAPSHOT_EVERY = 64


def install_drain_handlers(server: PlanningServer):
    """SIGTERM/SIGINT -> drain, stop accepting, let in-flight finish.

    Returns the event the handler sets.  Outside the main thread (test
    embedding) signal installation is skipped — the returned event can
    still be set manually to trigger the same shutdown path.
    """
    stop = threading.Event()

    def _handle(_signum, _frame):
        if stop.is_set():  # second signal: impatient operator, hard stop
            raise SystemExit(1)
        stop.set()
        server.drain()
        # shutdown() blocks until serve_forever returns; hop threads so
        # the signal handler itself stays non-blocking.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
    except ValueError:  # not the main thread
        pass
    return stop


def serve_until_signalled(
    server: PlanningServer,
    drain_timeout_s: float = 30.0,
    handlers_installed: bool = False,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain cleanly and return 0.

    The drain order is: readiness off (``/readyz`` 503, new work shed
    as ``draining``) -> the accept loop stops -> in-flight solves run
    to completion (bounded by ``drain_timeout_s``) -> sockets close.

    Callers that announce their port before serving should install the
    handlers *first* (``handlers_installed=True`` here) — a signal
    arriving between the announce line and this call must already find
    the drain path in place.
    """
    if not handlers_installed:
        install_drain_handlers(server)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.await_idle(timeout_s=drain_timeout_s)
        server.server_close()
    return 0


#: The options that configure a :class:`PlanningServer`, as
#: ``(flag, argparse keywords)``.  ``repro-usep serve`` and the worker
#: parser both declare them from here, and the router forwards every one
#: to its workers (:func:`server_option_argv`), so a fleet worker admits
#: and solves exactly as the single-process daemon would.
SERVER_OPTIONS = (
    ("--max-inflight", dict(
        type=int, default=2, metavar="N",
        help="concurrent solves per process; a fleet worker runs them in "
        "its own interpreter, single-process serve forks a supervised "
        "child for each")),
    ("--queue-depth", dict(
        type=int, default=8, metavar="N",
        help="requests allowed to wait for a solve slot; beyond this "
        "new requests are shed with 503")),
    ("--deadline-cap", dict(
        type=float, default=30.0, metavar="SECONDS",
        help="server-side clamp on per-request deadline_s")),
    ("--default-deadline", dict(
        type=float, default=10.0, metavar="SECONDS",
        help="deadline applied when the request sends none")),
    ("--rate", dict(
        type=float, default=0.0, metavar="RPS",
        help="token-bucket refill rate in requests/second (0 = no limit; "
        "each fleet worker has its own bucket)")),
    ("--rate-burst", dict(
        type=float, default=0.0, metavar="N",
        help="token-bucket capacity (0 = rate limiting disabled)")),
    ("--max-body-bytes", dict(
        type=int, default=8 << 20, metavar="BYTES",
        help="largest acceptable /solve body (413 above)")),
    ("--ladder", dict(
        default=None, metavar="SPEC",
        help="degradation ladder used under queue pressure and rung "
        "failure (default: DeDPO+RG -> DeGreedy)")),
    ("--algorithm", dict(
        default="DeDPO+RG", help="solver used when a request names none")),
    ("--memory-limit-mb", dict(
        type=int, default=2048, metavar="MB",
        help="data-segment rlimit (RLIMIT_DATA) of each fleet worker, or "
        "of each forked solver child of single-process serve "
        "(0 disables the guard)")),
    ("--in-process", dict(
        action="store_true",
        help="single-process serve: solve in the handler thread under a "
        "cooperative deadline instead of forking a child per solve "
        "(fleet workers always do)")),
    ("--verbose", dict(
        action="store_true", help="log each request to stderr")),
    ("--snapshot-every", dict(
        type=int, default=DEFAULT_SNAPSHOT_EVERY, metavar="N",
        help="compact each instance journal to a snapshot record after "
        "N applied mutation batches, bounding crash-recovery replay "
        "(0 disables the cadence; POST /compact still works)")),
)


def add_server_options(parser: argparse.ArgumentParser) -> None:
    """Declare every :data:`SERVER_OPTIONS` flag on ``parser``."""
    for flag, keywords in SERVER_OPTIONS:
        parser.add_argument(flag, **keywords)


def server_option_argv(args) -> List[str]:
    """The argv that gives a worker the server options of ``args``."""
    argv: List[str] = []
    for flag, keywords in SERVER_OPTIONS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if keywords.get("action") == "store_true":
            argv += [flag] if value else []
        elif value is not None:
            argv += [flag, str(value)]
    return argv


def server_config(args, **fields) -> ServerConfig:
    """A :class:`ServerConfig` from parsed server options (plus
    ``--journal-dir``); ``fields`` sets the rest.

    Raises ``ValueError`` on a bad ladder or admission setting.
    """
    ladder = parse_ladder(args.ladder) if args.ladder else list(DEFAULT_LADDER)
    admission = AdmissionConfig(
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        deadline_cap_s=args.deadline_cap,
        default_deadline_s=min(args.default_deadline, args.deadline_cap),
        rate_burst=args.rate_burst,
        rate_per_s=args.rate,
        max_body_bytes=args.max_body_bytes,
        ladder=tuple(ladder),
    )
    return ServerConfig(
        admission=admission,
        default_algorithm=args.algorithm,
        memory_limit_bytes=(
            None if args.memory_limit_mb <= 0 else args.memory_limit_mb << 20
        ),
        in_process=args.in_process,
        log_requests=args.verbose,
        journal_dir=args.journal_dir,
        snapshot_every=max(0, args.snapshot_every),
        **fields,
    )


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-usep-worker",
        description="One supervised worker of the planning service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--worker-id", default="w0")
    parser.add_argument("--journal-dir", default=None)
    add_server_options(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_worker_parser().parse_args(argv)
    # Every fleet worker solves in its own process, whether or not the
    # router forwarded --in-process (docs/serving.md).
    args.in_process = True
    try:
        config = server_config(
            args,
            instance_id_prefix=f"{args.worker_id}-",
            worker_id=args.worker_id,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # Chaos seam: the smoke tooling poisons journal I/O in worker
    # subprocesses through the environment (no-op when unset).
    disk_fault = install_disk_from_env()
    if disk_fault is not None:
        print(
            f"worker {args.worker_id} armed disk fault {disk_fault}",
            file=sys.stderr,
        )
    server = make_server(args.host, args.port, config)
    # One memory limit for the whole worker, which runs every solve:
    # set after imports and the socket, before journal replay.
    if config.memory_limit_bytes is not None:
        apply_memory_limit(config.memory_limit_bytes)
    install_drain_handlers(server)
    recovered = server.recover_instances()
    for failure in server.recovery_failures:
        print(f"worker {args.worker_id} journal replay failed: {failure}",
              file=sys.stderr)
    host, port = server.server_address[:2]
    # The exact line the supervisor parses for the ephemeral port.
    print(
        f"worker {args.worker_id} serving on http://{host}:{port} "
        f"(recovered {len(recovered)} instances)",
        flush=True,
    )
    return serve_until_signalled(server, handlers_installed=True)


if __name__ == "__main__":
    sys.exit(main())
