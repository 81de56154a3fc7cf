"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze <capture.pcap>`` — run the paper's measurement pipeline on a
  pcap file (simulated or re-collected real traffic) and print the
  per-session report: strategy, buffering, blocks, accumulation ratio.
* ``stream`` — simulate one streaming session and (optionally) write the
  capture as a pcap file.
* ``experiment <name>`` — regenerate one of the paper's tables/figures.
  ``--jobs N`` fans the independent sessions out over N worker processes
  (output stays byte-identical to ``--jobs 1``); ``--cache-dir`` memoizes
  completed sessions on disk so a rerun is nearly free; ``--no-cache``
  force-disables caching even when ``$REPRO_CACHE_DIR`` is set.
* ``profile <name>`` — run one experiment with a profile subscribed to
  its run ledger and print the per-phase breakdown (engine batches and
  the units computed under them), then the counters, histograms and
  event summary folded from the session results (``--trace out.jsonl``
  dumps the raw records, ``--trace-chrome out.json`` exports the phase
  spans for ``chrome://tracing`` / Perfetto).  The experiment's own
  output is unchanged by profiling; ``--report`` prints it too.
* ``worker`` — the executing half of a distributed campaign: a
  long-lived process that leases shards one at a time from a shared
  queue directory, runs them through its own supervised pool, and lands
  the artifacts in the shared store.  Start any number, on any hosts
  that see the queue/store paths; kill any of them freely — an expired
  lease re-leases to a surviving worker after the TTL.
* ``dash <name>`` — run an experiment under worker supervision with the
  live multi-line health dashboard: one lane per worker (heartbeat age,
  units/s, RSS, current unit) plus straggler/missed-beat flags.
* ``report`` — render a campaign's run ledger (written by every
  campaign run under ``--cache-dir``; ``--health``/``dash`` add the
  worker-health events) into a self-contained markdown or HTML report:
  timeline, per-worker utilization, unit latency percentiles, failures
  and health suspicions.
* ``list`` — show the available experiments (title and paper reference
  from the registry), applications and networks; ``--json`` emits the
  experiment registry as machine-readable JSON.

The ``experiment`` command doubles as the campaign observatory:
``--progress`` keeps a live status line on stderr, ``--health`` turns
on the engine health plane (heartbeats, straggler detection, run
ledger), and ``--flows`` / ``--metrics`` export per-session flow
records and metric time-series (format chosen by file suffix:
``.jsonl``, ``.csv``, ``.prom``).

It also scales: ``--sessions M --shards N`` re-dimensions a
sharding-aware campaign (``model_validation``) to M total sessions split
into N supervised shards with streaming reduction — memory stays
O(shards) up to 10^6 sessions, shard artifacts cache under
``--cache-dir`` so a re-run re-simulates zero shards, and
``--aggregate FILE`` exports the merged campaign statistics.

And it distributes: ``--distributed`` publishes the shards to a
lease-based work queue (``--queue-dir``, default ``<cache>/queue``)
instead of the local pool, forks ``--workers N`` local drain-mode
worker lanes (plus any ``repro worker`` processes started elsewhere), and
reduces artifacts as they land — with exports byte-identical to the
single-host ``--shards`` run.  ``--shard-size K`` makes many small
shards, the work-stealing granularity knob.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import List, Optional


def _add_scale_seed(p: argparse.ArgumentParser) -> None:
    """The ``--scale``/``--seed`` pair every campaign command takes."""
    p.add_argument("--scale", default="small",
                   choices=["small", "medium", "full"])
    p.add_argument("--seed", type=int, default=0)


def _add_durability(p: argparse.ArgumentParser, unit: str) -> None:
    """The ``--max-attempts``/``--unit-timeout`` pair; ``unit`` names
    what one attempt runs (a campaign unit, or a worker's shard)."""
    p.add_argument(
        "--max-attempts", type=int, default=1, metavar="N",
        help=f"run each {unit} up to N times before quarantining it "
             f"(default 1 = fail fast; >1 enables worker supervision)")
    p.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECS",
        help=f"per-{unit} wall-clock deadline; a worker exceeding it is "
             f"killed and the {unit} retried (enables worker supervision)")


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    """The campaign flags ``experiment`` and ``dash`` share."""
    _add_scale_seed(p)
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent sessions (default 1; "
             "output is byte-identical for any N)")
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="memoize completed sessions under DIR "
             "(default: $REPRO_CACHE_DIR if set, else no cache)")
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if $REPRO_CACHE_DIR is set")
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the campaign into N deterministic shards run through "
             "the supervised pool with streaming reduction (memory stays "
             "O(shards); shard artifacts cache under --cache-dir)")
    p.add_argument(
        "--sessions", type=int, default=None, metavar="M",
        help="re-dimension the campaign to M total sessions (sharding-"
             "aware experiments only, e.g. model_validation; implies "
             "--shards 1 unless given)")
    p.add_argument(
        "--shard-size", type=int, default=None, metavar="K",
        help="size-based sharding: split into ceil(M/K) shards of K "
             "sessions each instead of a fixed count — many small "
             "shards are the work-stealing knob for --distributed "
             "(exclusive with --shards)")
    p.add_argument(
        "--distributed", action="store_true",
        help="run the shard batch over the lease-based work queue "
             "instead of the local pool: publish shards, reduce "
             "artifacts as they land (requires --cache-dir; exports "
             "are byte-identical to a single-host --shards run)")
    p.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="shard-queue directory shared by the coordinator and "
             "every worker (default: <cache-dir>/queue)")
    p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="local drain-mode worker lanes the coordinator forks "
             "and respawns (0 = external fleet only: start `repro "
             "worker` yourself, on this host or others)")
    p.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECS",
        help="shard lease time-to-live; a worker silent this long is "
             "presumed dead and its shard re-leases (default 30)")
    p.add_argument(
        "--resume", action="store_true",
        help="continue a previous campaign: reuse its journal (requires "
             "--cache-dir) and re-simulate only incomplete units; exports "
             "stay byte-identical to an uninterrupted run")
    _add_durability(p, unit="unit")
    p.add_argument(
        "--degrade", action="store_true",
        help="complete the campaign even when units are quarantined, "
             "reporting them instead of aborting (exit code 3)")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, built on first use and then reused:
    no default reads the environment, so one tree serves every call."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Network Characteristics of Video Streaming "
            "Traffic' (Rao et al., CoNEXT 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="analyze a pcap capture of a streaming session")
    p_analyze.add_argument("pcap", help="path to a libpcap file")
    p_analyze.add_argument(
        "--client", default=None,
        help="client IP (default: the simulator's 10.0.0.1)")
    p_analyze.add_argument(
        "--server", default=None,
        help="server IP (default: the simulator's 192.0.2.1)")
    p_analyze.add_argument(
        "--duration", type=float, default=None,
        help="video duration in seconds (needed to estimate webM rates)")
    p_analyze.add_argument(
        "--gap-threshold", type=float, default=None,
        help="ON/OFF idle-gap threshold in seconds (default 0.15)")

    p_stream = sub.add_parser(
        "stream", help="simulate one streaming session")
    p_stream.add_argument(
        "--network", default="Research",
        help="Research | Residence | Academic | Home")
    p_stream.add_argument(
        "--service", default="youtube", choices=["youtube", "netflix"])
    p_stream.add_argument(
        "--application", default="firefox",
        choices=["ie", "firefox", "chrome", "ipad", "android"])
    p_stream.add_argument(
        "--container", default=None,
        choices=["flash", "flash-hd", "html5", "silverlight"],
        help="default: derived from the service/video")
    p_stream.add_argument("--rate-mbps", type=float, default=1.0,
                          help="video encoding rate")
    p_stream.add_argument("--duration", type=float, default=300.0,
                          help="video duration in seconds")
    p_stream.add_argument("--capture", type=float, default=120.0,
                          help="capture length in seconds")
    p_stream.add_argument("--watch-fraction", type=float, default=1.0,
                          help="fraction watched before the viewer quits")
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument("--pcap", default=None,
                          help="write the capture to this pcap file")

    p_exp = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures")
    p_exp.add_argument("name", help="table1, fig2..fig12, table2, "
                                    "model_validation, or 'all'")
    _add_campaign_args(p_exp)
    p_exp.add_argument(
        "--aggregate", default=None, metavar="FILE",
        help="export the campaign's merged aggregate statistics (moments "
             "and percentiles per metric); format from the suffix "
             "(.jsonl, .csv, .prom/.txt)")
    p_exp.add_argument(
        "--progress", action="store_true",
        help="live single-line progress on stderr (done/total, rate, ETA, "
             "cache hits; default off)")
    p_exp.add_argument(
        "--health", action="store_true",
        help="watch the supervised workers: heartbeats, straggler "
             "detection and (with a cache dir) a run ledger for "
             "`repro report` — report-only, results are unchanged")
    p_exp.add_argument(
        "--flows", default=None, metavar="FILE",
        help="export per-session flow records; format from the suffix "
             "(.jsonl, .csv, .prom/.txt)")
    p_exp.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="export per-session metric time-series; format from the "
             "suffix (.jsonl, .csv, .prom/.txt)")
    p_exp.add_argument(
        "--failures", default=None, metavar="FILE",
        help="export quarantined-unit failures (keys, errors, tracebacks) "
             "in the format implied by the suffix")

    p_worker = sub.add_parser(
        "worker",
        help="drain a distributed shard queue (the executing half of "
             "`repro experiment --distributed`)")
    p_worker.add_argument(
        "--queue-dir", required=True, metavar="DIR",
        help="shard-queue directory shared with the coordinator")
    p_worker.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared artifact-store root — the coordinator's "
             "--cache-dir (default: $REPRO_CACHE_DIR)")
    p_worker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity in leases, done markers and run ledgers "
             "(default: <hostname>-<pid>)")
    p_worker.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECS",
        help="lease time-to-live; must match the coordinator's "
             "(default 30)")
    p_worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECS",
        help="idle sleep between claim attempts (default 0.5)")
    p_worker.add_argument(
        "--drain", action="store_true",
        help="exit once every published shard is done or failed "
             "(default: keep polling for future work)")
    p_worker.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="stop after claiming N shards (canary/test workers)")
    _add_durability(p_worker, unit="shard")
    p_worker.add_argument(
        "--verbose", action="store_true",
        help="log every claim/completion/steal to stderr")

    p_dash = sub.add_parser(
        "dash",
        help="run an experiment with the live worker-health dashboard")
    p_dash.add_argument("name", help="an experiment name from `repro list`, "
                                     "or 'all'")
    _add_campaign_args(p_dash)
    p_dash.add_argument(
        "--beat-interval", type=float, default=None, metavar="SECS",
        help="worker heartbeat period (default 1s); missed-beat "
             "suspicion after two silent intervals")

    p_report = sub.add_parser(
        "report",
        help="render a campaign run ledger into markdown or HTML")
    p_report.add_argument(
        "name", nargs="?", default=None,
        help="experiment whose ledger to load (with --cache-dir); "
             "alternatively pass --ledger FILE")
    _add_scale_seed(p_report)
    p_report.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root the campaign ran under "
             "(default: $REPRO_CACHE_DIR if set)")
    p_report.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="load this ledger file directly instead of resolving "
             "name/scale/seed under the cache dir")
    p_report.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report here (.html/.htm renders HTML, anything "
             "else markdown); default: print markdown to stdout")

    p_prof = sub.add_parser(
        "profile",
        help="run one experiment with a profile on its run ledger and "
             "print the per-phase/counter breakdown")
    p_prof.add_argument("name", help="an experiment name from `repro list`")
    _add_scale_seed(p_prof)
    p_prof.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (counters/events are identical for any N; "
             "unit rows sum worker-seconds across workers)")
    p_prof.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="reuse/populate the result cache while profiling")
    p_prof.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if $REPRO_CACHE_DIR is set")
    p_prof.add_argument(
        "--trace", default=None, metavar="FILE.jsonl",
        help="also dump every span/event/counter as JSON lines")
    p_prof.add_argument(
        "--trace-chrome", default=None, metavar="FILE.json",
        help="dump the span tree as a Chrome trace-viewer JSON array "
             "(load in chrome://tracing or Perfetto)")
    p_prof.add_argument(
        "--report", action="store_true",
        help="print the experiment's normal report before the profile "
             "(byte-identical to a run without the profile)")
    p_prof.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also print the N hottest span paths ranked by cumulative "
             "time (a flat hot-span table, not the indented tree)")

    p_list = sub.add_parser(
        "list", help="show experiments, applications, networks, campaigns")
    p_list.add_argument(
        "--json", action="store_true",
        help="emit the experiment registry as JSON on stdout")
    p_list.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="also summarize campaign journals under DIR "
             "(default: $REPRO_CACHE_DIR if set)")
    return parser


def _cmd_analyze(args) -> int:
    from .analysis import analyze_records, bytes_human, median
    from .pcap import records_from_pcap
    from .simnet import CLIENT_IP, SERVER_IP

    records = records_from_pcap(args.pcap)
    if not records:
        print(f"{args.pcap}: no packets", file=sys.stderr)
        return 1
    client = args.client or CLIENT_IP
    server = args.server or SERVER_IP
    kwargs = {}
    if args.gap_threshold is not None:
        kwargs["gap_threshold"] = args.gap_threshold
    analysis = analyze_records(records, client, server,
                               duration=args.duration, **kwargs)
    trace = analysis.trace
    print(f"capture          : {args.pcap}")
    print(f"packets          : {len(records)}")
    print(f"flows            : {trace.flow_count}")
    print(f"downloaded       : {bytes_human(trace.total_bytes)}")
    print(f"retransmissions  : {analysis.retransmission_rate:.2%}")
    print(f"strategy         : {analysis.strategy}")
    print(f"buffering amount : {bytes_human(analysis.buffering_bytes)}")
    blocks = analysis.block_sizes
    if blocks:
        print(f"steady blocks    : {len(blocks)}, median "
              f"{bytes_human(median(blocks))}")
    if analysis.encoding_rate_bps:
        print(f"encoding rate    : {analysis.encoding_rate_bps / 1e6:.2f} "
              f"Mbps ({analysis.rate_estimate.method})")
        ratio = analysis.accumulation_ratio
        if ratio is not None:
            print(f"accumulation     : {ratio:.2f}")
    return 0


_APPLICATIONS = {
    "ie": "INTERNET_EXPLORER",
    "firefox": "FIREFOX",
    "chrome": "CHROME",
    "ipad": "IOS",
    "android": "ANDROID",
}

_CONTAINERS = {
    "flash": "FLASH",
    "flash-hd": "FLASH_HD",
    "html5": "HTML5",
    "silverlight": "SILVERLIGHT",
}


def _cmd_stream(args) -> int:
    from .analysis import analyze_session, bytes_human, median
    from .simnet import get_profile
    from .streaming import (
        Application,
        Container,
        Service,
        SessionConfig,
        run_session,
    )
    from .workloads import NETFLIX_LADDER_BPS, Video

    service = Service.NETFLIX if args.service == "netflix" else Service.YOUTUBE
    application = Application[_APPLICATIONS[args.application]]
    container = (Container[_CONTAINERS[args.container]]
                 if args.container else None)
    if service is Service.NETFLIX:
        ladder = ("480p-lo", "480p", "720p-lo", "720p", "1080p")
        video = Video(
            video_id="cli", duration=args.duration,
            encoding_rate_bps=NETFLIX_LADDER_BPS[-1], resolution="1080p",
            container="silverlight",
            variants=tuple(zip(ladder, NETFLIX_LADDER_BPS)),
        )
    else:
        wants_html5 = container is Container.HTML5 or (
            container is None and args.application in ("ipad", "android"))
        video = Video(
            video_id="cli", duration=args.duration,
            encoding_rate_bps=args.rate_mbps * 1e6, resolution="360p",
            container="webm" if wants_html5 else "flv",
        )
    config = SessionConfig(
        profile=get_profile(args.network),
        service=service,
        application=application,
        container=container,
        capture_duration=args.capture,
        seed=args.seed,
        watch_fraction=args.watch_fraction,
    )
    result = run_session(video, config)
    analysis = analyze_session(result, use_true_rate=True)
    print(f"network          : {config.profile.name}")
    print(f"client           : {service} / {application}")
    print(f"video            : {video}")
    print(f"downloaded       : {bytes_human(result.downloaded)} over "
          f"{result.connections_opened} connection(s)")
    print(f"strategy         : {analysis.strategy}")
    print(f"buffering amount : {bytes_human(analysis.buffering_bytes)}")
    blocks = analysis.block_sizes
    if blocks:
        print(f"steady blocks    : {len(blocks)}, median "
              f"{bytes_human(median(blocks))}")
    ratio = analysis.accumulation_ratio
    if ratio is not None:
        print(f"accumulation     : {ratio:.2f}")
    if result.interrupted:
        print(f"interrupted at   : {result.playback_position_s:.0f} s "
              f"watched; {bytes_human(result.unused_bytes)} wasted")
    if args.pcap:
        n = result.capture.write_pcap(args.pcap)
        print(f"pcap written     : {args.pcap} ({n} packets)")
    return 0


def _cache_root(args) -> Optional[str]:
    """``--cache-dir``, else ``$REPRO_CACHE_DIR``, else ``None``."""
    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return os.path.expanduser(root) if root else None


def _resolve_cache(args):
    """The result cache selected by ``--cache-dir``/``--no-cache``/env."""
    from .runner import ResultCache

    root = None if args.no_cache else _cache_root(args)
    return ResultCache(root) if root else None


def _supervision_policy(args):
    """The supervision policy the experiment flags ask for, or ``None``."""
    from .runner import RetryBudget, SupervisionPolicy

    if args.max_attempts <= 1 and args.unit_timeout is None \
            and not args.degrade:
        return None
    return SupervisionPolicy(
        unit_timeout=args.unit_timeout,
        retry=RetryBudget(max_attempts=max(1, args.max_attempts)),
        degrade=args.degrade,
    )


def _cmd_worker(args) -> int:
    """``repro worker``: drain a shard queue into the shared store."""
    from .runner import WorkerOptions, make_queue
    from .runner.dist.worker import worker_main

    cache_dir = _cache_root(args)
    if not cache_dir:
        print("repro worker needs the shared store: pass --cache-dir or "
              "set $REPRO_CACHE_DIR (same root as the coordinator)",
              file=sys.stderr)
        return 2
    try:
        queue = make_queue(args.queue_dir, ttl=args.lease_ttl)
    except ValueError as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return 2
    options = WorkerOptions(
        queue=args.queue_dir, cache_dir=cache_dir, worker_id=args.worker_id,
        ttl=args.lease_ttl, poll=args.poll, drain=args.drain,
        max_shards=args.max_shards, max_attempts=args.max_attempts,
        unit_timeout=args.unit_timeout, verbose=args.verbose)
    code, stats = worker_main(options, queue=queue)
    if stats is not None:
        print(stats.summary())
    return code


def _cmd_experiment(args, dashboard: bool = False) -> int:
    from .analysis import format_table
    from .experiments import REGISTRY, SCALES
    from .runner import (
        CampaignAborted,
        RunLedger,
        UnitCounts,
        engine_options,
        format_failures,
    )

    scale = SCALES[args.scale]
    names = list(REGISTRY) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"know {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    cache = _resolve_cache(args)
    if args.resume and cache is None:
        print("--resume needs a result cache: pass --cache-dir or set "
              "$REPRO_CACHE_DIR", file=sys.stderr)
        return 2
    supervision = _supervision_policy(args)
    health_on = dashboard or getattr(args, "health", False)
    sharding = None
    if (args.shards is not None or args.sessions is not None
            or args.shard_size is not None or args.distributed):
        from .runner import Sharding

        if args.shards is not None and args.shard_size is not None:
            print("--shards and --shard-size are exclusive: fix the "
                  "count or the size, not both", file=sys.stderr)
            return 2
        sharding = Sharding(shards=args.shards or 1, sessions=args.sessions,
                            shard_size=args.shard_size)
    dist = None
    if args.distributed:
        if cache is None:
            print("--distributed needs a shared artifact store: pass "
                  "--cache-dir or set $REPRO_CACHE_DIR (workers and the "
                  "coordinator must see the same root)", file=sys.stderr)
            return 2
        from .runner import DistPolicy

        try:
            dist = DistPolicy(
                queue=args.queue_dir or str(cache.root / "queue"),
                workers=args.workers, ttl=args.lease_ttl,
                max_attempts=args.max_attempts,
                unit_timeout=args.unit_timeout)
        except ValueError as exc:
            print(f"--distributed: {exc}", file=sys.stderr)
            return 2
    # the observatory: progress and collection subscribe to each
    # experiment's ledger, which streams the same events either way
    progress = None
    collector = None
    if dashboard:
        from .obs import DashboardReporter

        progress = DashboardReporter(label="units")
    elif args.progress:
        from .obs import ProgressReporter

        progress = ProgressReporter()
    if args.flows or args.metrics or args.failures or args.aggregate:
        from .obs import CampaignCollector

        # retaining mode costs nothing on a sharded campaign: sessions
        # stay inside the shard workers, the parent only sees (and
        # merges) shard snapshots — which is all --aggregate needs
        collector = CampaignCollector()
    summary = []
    reports = []
    aborted = False
    try:
        with engine_options(supervision=supervision):
            for name in names:
                spec = REGISTRY[name]
                if cache is not None:
                    # the write-ahead ledger: fresh unless resuming, so a
                    # stale log never misreports a new campaign
                    ledger = RunLedger.for_campaign(
                        cache.root, name, scale.name, args.seed,
                        fresh=not args.resume)
                    if args.resume:
                        counts = ledger.unit_counts()
                        print(f"resume {name}: journal has "
                              f"{counts['done']} done, "
                              f"{counts['failed']} failed, "
                              f"{counts['quarantined']} quarantined",
                              file=sys.stderr)
                else:
                    ledger = RunLedger()
                # the unit tally behind the engine line, the summary
                # table, the failure block and the exit code
                tally = UnitCounts()
                for subscriber in (tally, progress, collector):
                    if subscriber is not None:
                        ledger.subscribe(subscriber)
                ledger.event("campaign-started", experiment=name,
                             jobs=args.jobs, shards=args.shards,
                             sessions=args.sessions,
                             shard_size=args.shard_size,
                             resume=True if args.resume else None,
                             distributed=True if dist else None,
                             workers=(args.workers
                                      if dist is not None else None))
                monitor = None
                if health_on:
                    from .obs import HealthMonitor, HealthPolicy

                    beat = getattr(args, "beat_interval", None)
                    policy = (HealthPolicy(interval=beat)
                              if beat is not None else None)
                    monitor = HealthMonitor(policy, ledger=ledger)
                started = time.perf_counter()
                try:
                    result = spec.run(scale, seed=args.seed, jobs=args.jobs,
                                      cache=cache, ledger=ledger,
                                      sharding=sharding, health=monitor,
                                      dist=dist)
                except CampaignAborted:
                    aborted = True
                    report = (f"{name}: campaign aborted — "
                              + format_failures(tally.quarantined,
                                                tally.retries))
                except Exception:
                    # --degrade hands FailedUnit placeholders to the
                    # experiment; one whose analysis needs every unit will
                    # crash on them — that is a degraded experiment, not a
                    # bug, but only when units actually failed
                    if (supervision is None or not supervision.degrade
                            or not tally.failed):
                        raise
                    report = (f"{name}: degraded — analysis needs the "
                              f"missing units\n\n"
                              + format_failures(tally.quarantined,
                                                tally.retries))
                else:
                    report = result.report()
                    if tally.failed:
                        report += "\n\n" + format_failures(
                            tally.quarantined, tally.retries)
                finally:
                    ledger.event(
                        "campaign-finished", experiment=name,
                        elapsed_s=round(time.perf_counter() - started, 3))
                    ledger.close()
                summary.append((spec, time.perf_counter() - started, tally))
                if progress is not None:
                    # hold reports until the stderr status line is released
                    reports.append(report)
                else:
                    print(report)
                    print()
    finally:
        # restore the terminal line even on Ctrl-C / CampaignAborted
        if progress is not None:
            progress.close()
    for report in reports:
        print(report)
        print()
    if collector is not None:
        if args.flows:
            n = collector.write_flows(args.flows)
            print(f"flows written  : {args.flows} ({n} records)")
        if args.metrics:
            n = collector.write_metrics(args.metrics)
            print(f"metrics written: {args.metrics} ({n} samples)")
        if args.failures:
            n = collector.write_failures(args.failures)
            print(f"failures written: {args.failures} ({n} records)")
        if args.aggregate:
            n = collector.write_aggregate(args.aggregate)
            print(f"aggregate written: {args.aggregate} ({n} records)")
    # sharded campaigns always show the engine line — shard cache hits
    # are the observable proof a re-run re-simulated nothing
    if sharding is not None or args.resume \
            or any(tally.retries or tally.failed
                   for _, _, tally in summary):
        for spec, _, tally in summary:
            print(f"engine {spec.name}: {tally.total} units, "
                  f"hits {tally.cache_hits}, re-simulated "
                  f"{tally.misses}, retries {tally.retries}, "
                  f"failed {tally.failed}")
    if len(summary) > 1:
        rows = [
            (spec.name, spec.paper, f"{elapsed:.1f}", tally.total,
             tally.cache_hits, tally.misses, tally.failed)
            for spec, elapsed, tally in summary
        ]
        print(format_table(
            ["Experiment", "Paper", "Wall(s)", "Units", "Hits", "Misses",
             "Failed"],
            rows,
            title=f"Campaign summary — scale={scale.name} jobs={args.jobs} "
                  f"cache={'on' if cache else 'off'}",
        ))
        total_s = sum(elapsed for _, elapsed, _ in summary)
        units = sum(tally.total for _, _, tally in summary)
        hits = sum(tally.cache_hits for _, _, tally in summary)
        misses = sum(tally.misses for _, _, tally in summary)
        failed = sum(tally.failed for _, _, tally in summary)
        print(f"total: {units} units (hits {hits}, misses {misses}, "
              f"failed {failed}) in {total_s:.1f}s")
    if aborted:
        return 1
    if any(tally.failed for _, _, tally in summary):
        return 3  # completed, but degraded: partial results
    return 0


def _cmd_dash(args) -> int:
    """``repro dash``: the experiment runner with the live health board.

    Exactly ``repro experiment`` under the hood — same engine, caching,
    sharding and supervision flags — with the multi-line
    :class:`~repro.obs.DashboardReporter` and the health plane always
    on (a worker-lane dashboard without heartbeats would be blank).
    """
    # the observability exports stay on the experiment command; the
    # dashboard run only watches
    args.progress = False
    args.health = True
    args.flows = None
    args.metrics = None
    args.failures = None
    args.aggregate = None
    return _cmd_experiment(args, dashboard=True)


def _cmd_report(args) -> int:
    from .obs import ledger_path, load_ledger, render_report, write_report

    if args.ledger is not None:
        path = args.ledger
    else:
        root = _cache_root(args)
        if args.name is None or not root:
            print("repro report needs an experiment name plus a cache dir "
                  "(--cache-dir or $REPRO_CACHE_DIR), or --ledger FILE",
                  file=sys.stderr)
            return 2
        path = ledger_path(root, args.name, args.scale, args.seed)
    try:
        view = load_ledger(path)
    except (OSError, ValueError) as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_report(view, args.out)
        print(f"report written : {args.out}")
    else:
        print(render_report(view), end="")
    return 0


def _cmd_profile(args) -> int:
    from .experiments import REGISTRY, SCALES
    from .obs.profile import Profile, summarize, write_jsonl
    from .runner import RunLedger

    if args.name not in REGISTRY:
        print(f"unknown experiment {args.name!r}; know {', '.join(REGISTRY)}",
              file=sys.stderr)
        return 2
    spec = REGISTRY[args.name]
    scale = SCALES[args.scale]
    cache = _resolve_cache(args)
    ledger = RunLedger()
    profile = Profile(gauges={"engine.jobs": args.jobs})
    ledger.subscribe(profile)
    started = time.perf_counter()
    result = spec.run(scale, seed=args.seed, jobs=args.jobs, cache=cache,
                      ledger=ledger)
    elapsed = time.perf_counter() - started
    if args.report:
        print(result.report())
        print()
    title = (f"{spec.name} ({spec.paper}) — scale={scale.name} "
             f"seed={args.seed} jobs={args.jobs} "
             f"cache={'on' if cache else 'off'} wall={elapsed:.2f}s")
    print(summarize(profile, title=title))
    if args.top:
        from .obs.profile import format_hot_spans

        print()
        print(format_hot_spans(profile, top=args.top))
    if args.trace:
        n = write_jsonl(profile, args.trace)
        print(f"\ntrace written      : {args.trace} ({n} records)")
    if args.trace_chrome:
        from .obs.profile import write_chrome_trace

        n = write_chrome_trace(profile, args.trace_chrome)
        print(f"\nchrome trace       : {args.trace_chrome} ({n} events; "
              f"open in chrome://tracing or Perfetto)")
    return 0


def _cmd_list(args) -> int:
    from .analysis import format_table
    from .experiments import REGISTRY
    from .simnet import PROFILES

    campaigns = None
    cache_dir = _cache_root(args)
    if cache_dir:
        from .runner import list_campaigns

        campaigns = list_campaigns(cache_dir)
    if args.json:
        import json

        experiments = [
            {"name": spec.name, "title": spec.title, "paper": spec.paper,
             "tags": list(spec.tags)}
            for spec in REGISTRY.values()
        ]
        # plain registry list unless a cache dir brings campaigns into
        # scope — the historical shape stays stable for existing callers
        payload = (experiments if campaigns is None
                   else {"experiments": experiments, "campaigns": campaigns})
        print(json.dumps(payload, indent=2))
        return 0

    rows = [
        (spec.name, spec.paper, spec.title, ", ".join(spec.tags))
        for spec in REGISTRY.values()
    ]
    print(format_table(["Experiment", "Paper", "Title", "Tags"], rows,
                       title="Experiments"))
    print()
    print("networks    :", ", ".join(PROFILES))
    print("applications:", ", ".join(_APPLICATIONS))
    print("containers  :", ", ".join(_CONTAINERS))
    if campaigns is not None:
        print()
        if campaigns:
            rows = [
                (c["experiment"], c["scale"], c["seed"], c["done"],
                 c["failed"], c["quarantined"])
                for c in campaigns
            ]
            print(format_table(
                ["Campaign", "Scale", "Seed", "Done", "Failed",
                 "Quarantined"],
                rows, title="Campaign journals",
            ))
        else:
            print("campaign journals: none")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "dash":
        return _cmd_dash(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "list":
        return _cmd_list(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
