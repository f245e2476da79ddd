"""Per-layer timing from outside the program.

:class:`Tracer` replaces public functions of the ``repro`` layers with
timing wrappers, on the *class* (or module), never on an instance:
instance attributes would ride along when the simulator pickles itself
into a WAL snapshot, and a closure cannot be pickled.

Each call becomes a span ``(layer, start, end, self)``; self time is
the span's duration minus the time of the spans it directly contains.
A call into the layer that is already innermost on the calling
thread's stack is not a new span (a layer calling itself would
otherwise count twice).  Spans stay in memory until :meth:`summary`
aggregates them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._installed: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, name: str, layer) -> None:
        """Time ``owner.name`` (a class or module attribute) as
        spans of *layer*."""
        raw = owner.__dict__[name]
        binder = type(raw) if isinstance(
            raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw
        if inspect.iscoroutinefunction(func):
            raise TypeError(f"cannot time coroutine {name}")
        perf_counter = time.perf_counter
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((layer, start, end, duration - frame[1]))

        setattr(owner, name, binder(timed) if binder else timed)
        self._installed.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)

    def mark(self) -> int:
        """A position in the span list, for :meth:`summary` windows."""
        return len(self.spans)

    def summary(self, start: int = 0, stop: "int | None" = None) -> dict:
        """``{layer: {"calls", "busy_s", "self_s"}}`` over a window."""
        out: dict = {}
        for name, begin, end, own in self.spans[start:stop]:
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "busy_s": 0.0,
                                     "self_s": 0.0}
            entry["calls"] += 1
            entry["busy_s"] += end - begin
            entry["self_s"] += own
        return out


def merge_summaries(*summaries: dict) -> dict:
    """Sum several :meth:`Tracer.summary` results layer by layer."""
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
    return out


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every ``repro`` layer the
    benchmark reports on."""
    import repro.io
    import repro.sim.arrivals as arrivals
    import repro.sim.hosts as hosts
    import repro.wal.recovery as recovery
    from repro.cluster.federation import FederatedAdmissionService
    from repro.core.mechanism import Mechanism
    from repro.dsms.engine import StreamEngine
    from repro.sim.driver import LatencyProbe, SimulationDriver
    from repro.sim.subscriptions import SubscriptionManager
    from repro.wal.log import WriteAheadLog

    tracer.wrap(SimulationDriver, "run", "sim.driver")
    tracer.wrap(SimulationDriver, "snapshot", "sim.snapshot")
    tracer.wrap(SimulationDriver, "restore", "sim.restore")
    tracer.wrap(hosts, "restore_host", "sim.restore")
    tracer.wrap(LatencyProbe, "tick", "sim.probe")
    tracer.wrap(LatencyProbe, "sync", "sim.probe")
    tracer.wrap(SubscriptionManager, "run_period", "sim.subscriptions")
    tracer.wrap(SubscriptionManager, "run_period_rows",
                "sim.subscriptions")
    for cls in vars(arrivals).values():
        if (isinstance(cls, type) and "next_block" in cls.__dict__
                and issubclass(cls, arrivals.ArrivalProcess)):
            tracer.wrap(cls, "next_block", "sim.arrivals")
    tracer.wrap(Mechanism, "run", "core.mechanism")
    tracer.wrap(StreamEngine, "run", "dsms.engine")
    tracer.wrap(hosts.ClusterHost, "route", "cluster.route")
    tracer.wrap(hosts.ClusterHost, "submit", "cluster.route")
    tracer.wrap(FederatedAdmissionService, "submit",
                "cluster.federation.submit")
    tracer.wrap(FederatedAdmissionService, "run_period",
                "cluster.federation.settle")
    for name in ("append_arrivals", "append_period", "append_op"):
        tracer.wrap(WriteAheadLog, name, "wal.append")
    tracer.wrap(WriteAheadLog, "compact", "wal.compact")
    tracer.wrap(recovery, "scan_wal", "wal.scan")
    tracer.wrap(WriteAheadLog, "resume", "wal.scan")
    tracer.wrap(repro.io, "save_sim_snapshot", "io.snapshot_save")
    tracer.wrap(repro.io, "load_sim_snapshot", "io.snapshot_load")
    return tracer
