"""One benchmark workload in one fresh process: set up, measure, check.

Run by ``perfbench/run.py``; not meant to be called by hand, though it
can be::

    python3 perfbench/workloads.py --workload sim-subs-probe --seed 1 \\
        --seconds 10 --trace 0 --workdir .perfbench-work/x

The process prints ``READY`` on its standard output the moment set-up
is done (the parent times set-up up to that line), then the result as
one JSON line.  With ``--setup-only`` it tears down and exits right
after ``READY``.

Every workload runs *rounds*: a round is a fixed set of operations
derived from ``--seed`` and the round's index, and the run keeps
starting rounds until ``--seconds`` of measured time have passed.
Figures that depend on how much state a run has built up (memory, the
durable state on disk, the recovery of that state) are read at a fixed
point of the run, the end of the sims' round 0 or of the gateway's
session 0, so they do not drift with how many rounds a run managed.
Times are scaled by the machine's speed (see ``yardstick.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    check_period,
    check_recovered,
    check_settled_once,
    record_from_cluster_document,
    record_from_sim_report,
)
from tracer import Tracer, install_layers, merge_summaries  # noqa: E402
from yardstick import Sampled, scale, yardstick  # noqa: E402

#: Layers timed by spans; each reports ``.calls``, ``.busy_s`` and
#: ``.self_s`` in the traced run.
SPAN_LAYERS = (
    "sim.driver", "sim.arrivals", "sim.subscriptions", "sim.probe",
    "sim.snapshot", "core.mechanism", "dsms.engine", "cluster.route",
    "cluster.federation.submit", "cluster.federation.settle",
    "wal.append", "wal.compact", "io.snapshot_save",
)

#: Every per-layer metric of the traced run, with its unit.  A layer a
#: workload does not exercise reads 0 there.
PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in SPAN_LAYERS
       for field, unit in (("calls", "count"), ("busy_s", "s"),
                           ("self_s", "s"))},
    "sim.pump.rows": "count",
    "sim.pump.winners": "count",
    "sim.pump.fallbacks": "count",
    "wal.append.bytes": "B",
    "wal.fsyncs": "count",
    "wal.compact.snapshot_bytes": "B",
    "recovery.scan_s": "s",
    "recovery.restore_s": "s",
    "recovery.replay_s": "s",
    "recovery.replayed": "count",
    "serve.frontend.forwarded": "count",
    "wal.group_commit.fsyncs_per_mutation": "ratio",
    "wal.group_commit.largest_batch": "count",
    "serve.gateway.server_fast_p50_ms": "ms",
    "serve.gateway.server_slow_p50_ms": "ms",
    "serve.gateway.timeouts": "count",
    "serve.client.submit_p50_ms": "ms",
    "serve.client.report_p50_ms": "ms",
    "serve.client.tick_p50_ms": "ms",
    "serve.client.tick_p90_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: Arrivals per engine tick and ticks per period in both sims.
ARRIVAL_RATE = 50
TICKS = 20
#: WAL compaction interval in periods: the program's default, that of
#: ``repro sim --compact-every``, ``repro serve --compact-every`` and
#: ``GatewayConfig.compact_every``.  Rounds and sessions are long
#: enough to reach it, so recovery starts from a compacted snapshot.
COMPACT_EVERY = 64


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def dir_mb(path) -> float:
    total = sum(entry.stat().st_size for entry in Path(path).rglob("*")
                if entry.is_file())
    return total / 1e6


def ready() -> None:
    print("READY", flush=True)


# ----------------------------------------------------------------------
# The simulator workloads
# ----------------------------------------------------------------------


class SimWorkload:
    """A pumped simulation run in rounds of fresh drivers.

    Each round drives ``round_arrivals`` Poisson arrivals (a fixed
    count, so the input defines the work) through a new driver, timing
    every public ``driver.run(1)``.
    """

    #: Periods of round 0 checked against the per-event reference path.
    reference_periods = 10

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        if smoke:
            self.round_arrivals //= 10
        self.periods = self.round_arrivals // (ARRIVAL_RATE * TICKS) + 2

    def round_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def arrivals_spec(self, index: int) -> str:
        return (f"poisson:rate={ARRIVAL_RATE},limit={self.round_arrivals},"
                f"seed={self.round_seed(index)}")

    def build(self, index: int, *, reference: bool = False):
        """A fresh driver for round *index* (and its WAL, if any)."""
        from repro.sim import SimulationDriver, SubscriptionOptions

        seed = self.round_seed(index)
        return SimulationDriver(
            self.host(seed), arrivals=self.arrivals_spec(index),
            subscriptions=SubscriptionOptions(seed=seed),
            probe="fifo" if self.probe else None,
            batch_arrivals=not reference, pump=not reference)

    def input_ids(self, index: int) -> "list[str]":
        """Every arrival id of round *index*, from a fresh process."""
        from repro.sim.arrivals import resolve_arrivals

        process = resolve_arrivals(self.arrivals_spec(index))
        ids: list = []
        while (block := process.next_block()) is not None:
            ids.extend(block.ids)
        return ids

    # -- hooks for the durable state -----------------------------------

    def before_period(self, driver, period: int) -> None:
        """Called before each period of the primary round 0."""

    def finish(self, driver, primary: bool) -> None:
        """Called after each round."""

    # -- the round -----------------------------------------------------

    def run_round(self, index: int, driver=None,
                  primary: bool = False) -> dict:
        """Run round *index*; the *primary* round 0 leaves the durable
        state that recovery reads."""
        if driver is None:
            driver = self.build(index)
        times = []
        scaled = []
        reports = []
        for period in range(self.periods):
            if primary:
                self.before_period(driver, period)
            # A compacting period runs for seconds; Sampled scales it
            # by readings taken all along it.
            with Sampled() as clock:
                reports.extend(driver.run(1))
            times.append(clock.measured)
            scaled.append(clock.scaled)
        self.finish(driver, primary)
        return {"driver": driver, "reports": reports, "times": times,
                "scaled": scaled}

    def check_round(self, index: int, outcome: dict) -> "list[str]":
        driver, reports = outcome["driver"], outcome["reports"]
        records = [record_from_sim_report(report) for report in reports]
        errors = []
        for record in records:
            errors.extend(check_period(record))
        # One auction per arrival and per renewal, less the requests
        # still pending after the last boundary.
        expected = dict.fromkeys(self.input_ids(index), 1)
        for manager in driver.managers:
            for query_id, renewals in manager.renewal_counts.items():
                expected[query_id] += renewals
        for pending in driver.pending:
            for item in pending:
                if isinstance(item, tuple):
                    ids = (item[0].query_id,)
                else:
                    ids = item.block.ids[item.start:item.stop]
                for query_id in ids:
                    expected[query_id] -= 1
        errors.extend(check_settled_once(expected, records))
        return [f"round {index}: {error}" for error in errors]

    @staticmethod
    def state(driver) -> dict:
        return {"revenue": driver.total_revenue(), "period": driver.period,
                "last_report": repr(driver.reports[-1])}

    def check_reference(self, reports) -> "list[str]":
        """Round 0's first periods equal the per-event reference path."""
        got = reports[:self.reference_periods]
        driver = self.build(0, reference=True)
        expected = driver.run(len(got))
        if repr(got) != repr(expected):
            return ["round 0: the pumped reports differ from the "
                    "per-event reference path"]
        return []


class SimSubsProbe(SimWorkload):
    """One GV service, subscriptions, pump and ``fifo`` probe, no WAL.

    Its durable state is a checkpoint saved ``catchup`` periods before
    the end of round 0; recovering means loading it and re-running
    those periods.
    """

    name = "sim-subs-probe"
    round_arrivals = 200_000
    probe = True
    catchup = 10
    #: Recoveries timed per untraced run (about 2 s each); the median
    #: is reported.
    recoveries = 7

    def host(self, seed: int):
        from repro.dsms.streams import SyntheticStream
        from repro.service import ServiceBuilder

        return (ServiceBuilder()
                .with_sources(SyntheticStream("s", rate=2.0, seed=seed))
                .with_capacity(150.0).with_mechanism("GV")
                .with_ticks_per_period(TICKS).with_selection("fast")
                .build())

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "round0.ckpt"

    def before_period(self, driver, period: int) -> None:
        if period == self.periods - self.catchup:
            driver.save_checkpoint(self.checkpoint_path)

    def durable_mb(self) -> float:
        return self.checkpoint_path.stat().st_size / 1e6

    def prepare_recovery(self):
        return self._recover

    def _recover(self):
        from repro.sim import SimulationDriver

        driver = SimulationDriver.load_checkpoint(self.checkpoint_path)
        driver.run(self.catchup)
        return driver, self.catchup


class SimShardedWal(SimWorkload):
    """A 4-shard consistent-hash GV federation with subscriptions and
    the pump on, logging to a WAL (``batch:256`` fsync, compaction
    every ``COMPACT_EVERY`` periods).  A round's 72 periods reach one
    compaction; round 0's log is recovered offline."""

    name = "sim-sharded-wal"
    round_arrivals = 70_000
    probe = False
    recoveries = 3          # about 5 s each

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.wal_stats: list = []
        self.logs_created = 0

    def host(self, seed: int):
        from repro.cluster import FederatedAdmissionService
        from repro.dsms.streams import SyntheticStream

        return FederatedAdmissionService.build(
            num_shards=4, sources=[SyntheticStream("s", rate=2.0,
                                                   seed=seed)],
            capacity=150.0, mechanism="GV", ticks_per_period=TICKS,
            selection="fast", placement="consistent-hash")

    def build(self, index: int, *, reference: bool = False):
        from repro.wal import WriteAheadLog

        driver = super().build(index, reference=reference)
        if not reference:
            directory = self.workdir / f"wal-{self.logs_created}"
            self.logs_created += 1
            driver.attach_wal(WriteAheadLog.create(
                directory, driver.snapshot(), fsync="batch:256",
                compact_every=COMPACT_EVERY))
        return driver

    def finish(self, driver, primary: bool) -> None:
        from repro.wal import list_snapshots

        log = driver.wal
        log.close()
        stats = dict(log.stats_snapshot())
        _period, newest = list_snapshots(log.directory)[-1]
        stats["snapshot_bytes"] = newest.stat().st_size
        self.wal_stats.append(stats)
        if primary:
            self.recovery_dir = log.directory
        else:
            shutil.rmtree(log.directory)

    def durable_mb(self) -> float:
        return dir_mb(self.recovery_dir)

    def prepare_recovery(self):
        # Recovery reopens the log for append, so each one gets a copy.
        copy = self.workdir / "wal-recovering"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.recovery_dir, copy)
        return lambda: self._recover(copy)

    @staticmethod
    def _recover(directory):
        from repro.wal import recover_sim_driver

        driver, log = recover_sim_driver(directory)
        log.close()
        return driver, log.stats["replayed"]


def timed(fn):
    """Run *fn* under yardstick readings, from a collected heap;
    returns ``(scaled seconds, measured seconds, fn's result)``."""
    gc.collect()
    with Sampled() as clock:
        result = fn()
    return clock.scaled, clock.measured, result


def timed_recoveries(prepare, repeats: int):
    """Time *repeats* recoveries (each set up untimed by *prepare*);
    returns the median (scaled, measured) seconds and the last
    recovery's result.  Each recovery's result is dropped before the
    next, so none runs on a heap its predecessors grew."""
    times = []
    for _ in range(repeats):
        result = None
        scaled, measured, result = timed(prepare())
        times.append((scaled, measured))
    times.sort()
    return (*times[len(times) // 2], result)


def run_sim(workload: SimWorkload, seconds: float, trace: bool,
            setup_only: bool) -> dict:
    first = workload.build(0)
    ready()
    if setup_only:
        if first.wal is not None:
            first.wal.close()
        return {}
    tracer = Tracer() if trace else None
    errors: list = []
    times: list = []
    scaled: list = []
    pairs: list = []
    windows: list = []
    pump = {"rows": 0, "winners": 0, "fallbacks": 0}
    index = 0
    measured = 0.0
    live = None
    reference_reports = None
    rss = durable = None
    while index == 0 or measured < seconds:
        # Every round starts from a collected heap.
        gc.collect()
        outcome = workload.run_round(index, first, primary=index == 0)
        first = None
        measured += sum(outcome["times"])
        times.extend(outcome["times"])
        scaled.extend(outcome["scaled"])
        if index == 0:
            rss = vm_hwm_mb()
            durable = workload.durable_mb()
            live = workload.state(outcome["driver"])
            reference_reports = outcome["reports"][
                :workload.reference_periods]
        errors.extend(workload.check_round(index, outcome))
        if tracer is not None:
            # The traced run repeats each round with the layers timed;
            # the untraced twin is the overhead baseline.
            gc.collect()
            install_layers(tracer)
            start = tracer.mark()
            traced = workload.run_round(index)
            tracer.uninstall()
            windows.append((start, tracer.mark()))
            pairs.append((sum(outcome["scaled"]), sum(traced["scaled"])))
            errors.extend(workload.check_round(index, traced))
            snapshot = traced["driver"].metrics_snapshot()["pump"]
            for key in pump:
                pump[key] += snapshot[key]
        index += 1
        outcome = traced = None
    if tracer is not None:
        install_layers(tracer)
    recovery_mark = tracer.mark() if tracer else 0
    recover_s, recover_raw, (recovered, replayed) = timed_recoveries(
        workload.prepare_recovery, 1 if trace else workload.recoveries)
    if tracer is not None:
        tracer.uninstall()
    errors.extend(check_recovered(live, workload.state(recovered)))
    errors.extend(workload.check_reference(reference_reports))
    arrivals = workload.round_arrivals * index
    result = {
        "errors": errors,
        "attempted": len(times),
        "failed": 0,
        "metrics": {
            "throughput_per_s": (arrivals / sum(scaled), "1/s"),
            "op_p50_ms": (percentile(scaled, 50) * 1000.0, "ms"),
            "op_p90_ms": (percentile(scaled, 90) * 1000.0, "ms"),
            "recover_s": (recover_s, "s"),
            "durable_mb": (durable, "MB"),
            "peak_rss_mb": (rss, "MB"),
        },
        "measured": {
            "throughput_per_s": arrivals / measured,
            "op_p50_ms": percentile(times, 50) * 1000.0,
            "op_p90_ms": percentile(times, 90) * 1000.0,
            "recover_s": recover_raw,
        },
    }
    if tracer is not None:
        layers = merge_summaries(*(tracer.summary(start, stop)
                                   for start, stop in windows))
        recovery = tracer.summary(recovery_mark)
        result["layers"] = layer_metrics(
            layers, recovery, recover_raw, replayed, pairs,
            len(tracer.spans))
        result["layers"].update({
            f"sim.pump.{key}": (value, "count")
            for key, value in pump.items()})
        wal_stats = getattr(workload, "wal_stats", [])
        # Only the traced rounds' logs: the untraced twin logged the
        # same records first.
        traced_stats = wal_stats[1::2]
        result["layers"].update({
            "wal.append.bytes": (sum(s["appended_bytes"]
                                     for s in traced_stats), "B"),
            "wal.fsyncs": (sum(s["fsyncs"] for s in traced_stats),
                           "count"),
            "wal.compact.snapshot_bytes": (max(
                [s["snapshot_bytes"] for s in traced_stats] or [0]), "B"),
        })
    return result


def layer_metrics(layers: dict, recovery: dict, recover_s: float,
                  replayed: int, pairs, spans: int) -> dict:
    """Span layers, recovery phases and tracing overhead as metrics."""
    out = {}
    for layer in SPAN_LAYERS:
        entry = layers.get(layer, {"calls": 0, "busy_s": 0.0,
                                   "self_s": 0.0})
        out[f"{layer}.calls"] = (entry["calls"], "count")
        out[f"{layer}.busy_s"] = (entry["busy_s"], "s")
        out[f"{layer}.self_s"] = (entry["self_s"], "s")

    def busy(*names):
        return sum(recovery.get(name, {}).get("busy_s", 0.0)
                   for name in names)

    scan = busy("wal.scan")
    restore = busy("io.snapshot_load", "sim.restore")
    out["recovery.scan_s"] = (scan, "s")
    out["recovery.restore_s"] = (restore, "s")
    out["recovery.replay_s"] = (recover_s - scan - restore, "s")
    out["recovery.replayed"] = (replayed, "count")
    untraced = sum(plain for plain, _traced in pairs)
    traced = sum(timed for _plain, timed in pairs)
    out["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
    out["trace.spans"] = (spans, "count")
    return out


# ----------------------------------------------------------------------
# The gateway workload
# ----------------------------------------------------------------------


class GatewayWorkload:
    """``repro serve``'s pre-fork front-end, 2 workers over a 4-shard
    CAT federation, striped WAL with group commit, rate limits raised.

    The run is a series of *sessions*, each a fresh supervisor with a
    fresh WAL serving ``ROUNDS`` rounds.  One load process holds two
    keep-alive connections; a round is ``SUBMITS`` closed-loop submits
    per connection with a ``GET /v1/report`` after every
    ``REPORT_EVERY``-th, then one ``POST /v1/tick`` once both
    connections are done.  Sessions keep the work per round from
    growing with the run: the WAL snapshot carries the whole report
    history, so in one long-lived gateway each compacting tick costs
    more than the last, and a faster program would pay for the longer
    history its speed bought.
    """

    name = "gateway-2w"
    SUBMITS = 25
    REPORT_EVERY = 10
    CONNECTIONS = 2
    recoveries = 5          # about 1.4 s each
    #: Rounds per session.  The compaction is at period 64, so
    #: recovering session 0's WAL replays 8 periods of striped ops.
    ROUNDS = 72

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        if smoke:
            self.SUBMITS = 10
            self.ROUNDS = 8

    def session_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def factory(self, seed: int):
        from repro.cluster import FederatedAdmissionService
        from repro.dsms.streams import SyntheticStream

        return FederatedAdmissionService.build(
            num_shards=4,
            sources=[SyntheticStream("s", rate=5.0, seed=seed)],
            capacity=40.0, mechanism="CAT", ticks_per_period=TICKS,
            placement="consistent-hash")

    def start(self, index: int, traced: bool = False):
        """A started supervisor for session *index* and its arrivals."""
        from repro.serve import (
            FrontendConfig,
            GatewayConfig,
            GatewaySupervisor,
        )
        from repro.sim.arrivals import resolve_arrivals

        seed = self.session_seed(index)
        name = f"{'traced' if traced else 'plain'}-{index}"
        factory = functools.partial(self.factory, seed)
        if traced:
            out_dir = self.workdir / "trace" / name
            out_dir.mkdir(parents=True)
            factory = traced_factory(factory, out_dir)
        config = FrontendConfig(workers=2, gateway=GatewayConfig(
            quiet=True, client_rate=100_000.0, client_burst=100_000.0,
            peer_rate=1e9, peer_burst=1e9,
            wal_dir=str(self.workdir / f"wal-{name}"),
            wal_group_commit=True, compact_every=COMPACT_EVERY))
        arrivals = resolve_arrivals(f"poisson:rate=5,seed={seed}")
        return GatewaySupervisor(factory, config).start(), arrivals


def traced_factory(factory, out_dir: Path):
    """*factory*, but inside each forked worker it first times the
    layers, and the worker dumps its spans plus its own ``/metrics``
    document when it stops."""
    owner = os.getpid()
    installed = []

    def traced():
        if os.getpid() != owner and not installed:
            from repro.serve.frontend import WorkerGateway

            tracer = install_layers(Tracer())
            original = WorkerGateway.stop_worker

            async def stop_worker(self):
                metrics = self.metrics_document()
                try:
                    await original(self)
                finally:
                    (out_dir / f"worker-{self.index}.json").write_text(
                        json.dumps({"metrics": metrics,
                                    "layers": tracer.summary()}))

            WorkerGateway.stop_worker = stop_worker
            installed.append(tracer)
        return factory()
    return traced


async def drive_session(workload: GatewayWorkload, supervisor, arrivals,
                        checkpoint: bool) -> dict:
    """Run one session's rounds against a started supervisor; returns
    samples (measured and scaled), check errors, failures, and with
    *checkpoint* the readings taken after the last round."""
    from repro.serve import GatewayClient

    host, port = supervisor.address
    clients = [GatewayClient(host, port, client_id=f"bench{i}")
               for i in range(workload.CONNECTIONS)]
    for client in clients:
        await client.connect()
    samples = {"submit": [], "report": [], "tick": []}
    scaled = {"submit": [], "report": [], "tick": []}
    errors: list = []
    failed = 0
    round_times: list = []
    last_report = None
    taken = None

    async def connection(client, items, acked, reads, latencies):
        nonlocal failed
        for position, arrival in enumerate(items, 1):
            started = time.perf_counter()
            status, _body = await client.submit(arrival.query)
            latencies.append(("submit", time.perf_counter() - started))
            if status == 200:
                acked.append(arrival.query.query_id)
            else:
                failed += 1
            if position % workload.REPORT_EVERY == 0:
                started = time.perf_counter()
                status, body = await client.report()
                latencies.append(("report", time.perf_counter() - started))
                if status == 200:
                    reads.append(body.get("report"))
                else:
                    failed += 1

    after = yardstick()
    try:
        for index in range(workload.ROUNDS):
            batch = [arrivals.next_arrival()
                     for _ in range(workload.SUBMITS * len(clients))]
            acked: list = []
            reads: list = []
            latencies: list = []
            before = after
            started = time.perf_counter()
            await asyncio.gather(*(
                connection(client, batch[i::len(clients)], acked, reads,
                           latencies)
                for i, client in enumerate(clients)))
            tick_started = time.perf_counter()
            status, body = await clients[0].tick()
            finished = time.perf_counter()
            after = yardstick()
            latencies.append(("tick", finished - tick_started))
            # Nothing is in flight while the yardstick runs.
            factor = scale(1.0, before, after)
            for kind, elapsed in latencies:
                samples[kind].append(elapsed)
                scaled[kind].append(elapsed * factor)
            round_times.append((finished - started,
                                (finished - started) * factor))
            if any(read != last_report for read in reads):
                errors.append(f"round {index}: a /v1/report read "
                              f"differs from the last settled report")
            if status != 200:
                failed += 1
                errors.append(f"round {index}: tick answered {status}")
                continue
            last_report = body["report"]
            record = record_from_cluster_document(last_report)
            errors.extend(f"round {index}: {error}"
                          for error in check_period(record))
            mine = set(acked)
            own = {key: [query_id for query_id in record[key]
                         if query_id in mine]
                   for key in ("admitted", "rejected")}
            errors.extend(
                f"round {index}: {error}" for error in
                check_settled_once(dict.fromkeys(acked, 1), [own]))
        if checkpoint:
            taken = await take_checkpoint(workload, supervisor, clients[0])
    finally:
        for client in clients:
            await client.close()
    return {"samples": samples, "scaled": scaled, "errors": errors,
            "failed": failed,
            "requests": sum(len(values) for values in samples.values()),
            "round_times": round_times, "checkpoint": taken}


async def take_checkpoint(workload: GatewayWorkload, supervisor,
                          client) -> dict:
    """Between rounds (nothing in flight, every ack durable): the
    live state, the workers' peak memory, and a copy of the WAL."""
    from repro.wal import list_snapshots

    _status, body = await client.report()
    copy = workload.workdir / "wal-checkpoint"
    shutil.copytree(Path(supervisor.config.gateway.wal_dir), copy)
    _period, newest = list_snapshots(copy)[-1]
    return {
        "snapshot_bytes": newest.stat().st_size,
        "rss": sum(vm_hwm_mb(supervisor.worker_pid(worker))
                   for worker in range(2)),
        "live": {"revenue": body["revenue"], "period": body["period"],
                 "last_report": json.dumps(body["report"],
                                           sort_keys=True)},
        "durable": dir_mb(copy),
    }


def prepare_gateway_recovery(workload: GatewayWorkload):
    """Striped recovery of a fresh copy of session 0's WAL; returns the
    callable :func:`timed_recoveries` times."""
    from repro.serve.gateway import make_backend

    copy = workload.workdir / "wal-recovering"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(workload.workdir / "wal-checkpoint", copy)
    backend = make_backend(workload.factory(workload.session_seed(0)))

    def recover():
        from repro.wal import recover_striped_gateway

        log, _consumed = recover_striped_gateway(copy, backend)
        log.close()
        return backend, log.stats["replayed"]
    return recover


def run_session(workload: GatewayWorkload, index: int, started=None,
                traced: bool = False) -> dict:
    """Session *index* on a fresh gateway (or the one set-up
    *started*), stopped and its WAL removed afterwards; session 0 has
    copied its WAL for recovery by then."""
    supervisor, arrivals = started or workload.start(index, traced)
    try:
        return asyncio.run(drive_session(
            workload, supervisor, arrivals,
            checkpoint=index == 0 and not traced))
    finally:
        supervisor.stop()
        shutil.rmtree(supervisor.config.gateway.wal_dir)


def run_gateway(workload: GatewayWorkload, seconds: float, trace: bool,
                setup_only: bool) -> dict:
    from repro.serve.gateway import report_document

    first = workload.start(0)
    ready()
    if setup_only:
        first[0].stop()
        return {}
    runs: list = []
    pairs: list = []
    index = 0
    measured = 0.0
    while index == 0 or measured < seconds:
        run = run_session(workload, index, first)
        first = None
        runs.append(run)
        measured += sum(raw for raw, _scaled in run["round_times"])
        if trace:
            # The same session again with the layers timed inside the
            # workers; the untraced twin is the overhead baseline.
            traced = run_session(workload, index, traced=True)
            runs.append(traced)
            pairs.append((sum(s for _r, s in run["round_times"]),
                          sum(s for _r, s in traced["round_times"])))
        index += 1
    plain = runs[::2] if trace else runs
    taken = runs[0]["checkpoint"]
    tracer = install_layers(Tracer()) if trace else None
    recover_s, recover_raw, (backend, replayed) = timed_recoveries(
        lambda: prepare_gateway_recovery(workload),
        1 if trace else workload.recoveries)
    if tracer is not None:
        tracer.uninstall()
    errors = [error for run in runs for error in run["errors"]]
    errors += check_recovered(taken["live"], {
        "revenue": backend.total_revenue(), "period": backend.period,
        "last_report": json.dumps(report_document(backend.last_report),
                                  sort_keys=True)})

    def pooled(key, kind):
        return [value for run in plain for value in run[key][kind]]

    requests = sum(run["requests"] for run in plain)
    submits = pooled("scaled", "submit")
    result = {
        "errors": errors,
        "attempted": requests,
        "failed": sum(run["failed"] for run in plain),
        "metrics": {
            "throughput_per_s": (requests / sum(
                s for run in plain for _r, s in run["round_times"]),
                "1/s"),
            "op_p50_ms": (percentile(submits, 50) * 1000.0, "ms"),
            "op_p90_ms": (percentile(submits, 90) * 1000.0, "ms"),
            "recover_s": (recover_s, "s"),
            "durable_mb": (taken["durable"], "MB"),
            "peak_rss_mb": (taken["rss"], "MB"),
        },
        "measured": {
            "throughput_per_s": requests / measured,
            "op_p50_ms": percentile(pooled("samples", "submit"), 50)
            * 1000.0,
            "op_p90_ms": percentile(pooled("samples", "submit"), 90)
            * 1000.0,
            "recover_s": recover_raw,
        },
    }
    if trace:
        dumps = sorted((workload.workdir / "trace").glob("*/worker-*.json"))
        workers = [json.loads(path.read_text()) for path in dumps]
        layers = merge_summaries(*(w["layers"] for w in workers))
        spans = sum(entry["calls"] for w in workers
                    for entry in w["layers"].values())
        layers_out = layer_metrics(
            layers, tracer.summary(), recover_raw, replayed, pairs,
            spans + len(tracer.spans))
        traced_runs = runs[1::2]
        layers_out.update(gateway_layers(workers, {
            kind: [value for run in traced_runs
                   for value in run["samples"][kind]]
            for kind in ("submit", "report", "tick")}))
        layers_out["wal.compact.snapshot_bytes"] = (
            taken["snapshot_bytes"], "B")
        result["layers"] = layers_out
    return result


def gateway_layers(workers: list, samples: dict) -> dict:
    """Counters from the workers' own ``/metrics`` documents, merged,
    plus client-side latencies."""
    metrics = [worker["metrics"] for worker in workers]
    group = [m["wal"].get("group_commit") or {} for m in metrics]
    mutations = sum(g.get("mutations", 0) for g in group)
    fsyncs = sum(g.get("fsyncs", 0) for g in group)

    def tier_p50(tier):
        values = [m["latency_ms"][tier]["p50"] for m in metrics
                  if m["latency_ms"].get(tier)]
        return sum(values) / len(values) if values else 0.0

    logs = [log for m in metrics
            for log in (m["wal"], m["frontend"]["stripe"])]
    ms = 1000.0
    return {
        "wal.append.bytes": (sum(log.get("appended_bytes", 0)
                                 for log in logs), "B"),
        "wal.fsyncs": (sum(log.get("fsyncs", 0) for log in logs),
                       "count"),
        "serve.frontend.forwarded": (sum(
            m["frontend"]["forwarded"] for m in metrics), "count"),
        "wal.group_commit.fsyncs_per_mutation": (
            fsyncs / mutations if mutations else 0.0, "ratio"),
        "wal.group_commit.largest_batch": (max(
            g.get("largest_batch", 0) for g in group), "count"),
        "serve.gateway.server_fast_p50_ms": (tier_p50("fast"), "ms"),
        "serve.gateway.server_slow_p50_ms": (tier_p50("slow"), "ms"),
        "serve.gateway.timeouts": (sum(
            m["backpressure"]["timeouts"] for m in metrics), "count"),
        "serve.client.submit_p50_ms": (
            percentile(samples["submit"], 50) * ms, "ms"),
        "serve.client.report_p50_ms": (
            percentile(samples["report"], 50) * ms, "ms"),
        "serve.client.tick_p50_ms": (
            percentile(samples["tick"], 50) * ms, "ms"),
        "serve.client.tick_p90_ms": (
            percentile(samples["tick"], 90) * ms, "ms"),
    }


WORKLOADS = {
    SimSubsProbe.name: SimSubsProbe,
    SimShardedWal.name: SimShardedWal,
    GatewayWorkload.name: GatewayWorkload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller rounds (the benchmark's own "
                             "tests)")
    args = parser.parse_args(argv)

    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"perfbench: repro imported from {source}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    runner = run_gateway if args.workload == "gateway-2w" else run_sim
    result = runner(workload, args.seconds, bool(args.trace),
                    args.setup_only)
    if not args.setup_only:
        if "layers" in result:
            layers = result["layers"]
            unknown = set(layers) - set(PER_LAYER)
            if unknown:
                raise RuntimeError(f"unlisted layer metrics {unknown}")
            result["layers"] = {name: layers.get(name, (0, unit))
                                for name, unit in PER_LAYER.items()}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
