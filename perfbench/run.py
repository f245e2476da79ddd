"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout of this repository; the program under
test is the checkout's own ``src/`` (pure Python, nothing to build).
Workloads: ``sim-subs-probe``, ``sim-sharded-wal``, ``gateway-2w`` (see
README.md beside this file).

Each workload runs in fresh child processes of ``workloads.py``.  With
``--trace 0`` the child measures the end-to-end metrics; set-up time
(``setup_s``) is the median over ``SETUP_SAMPLES`` children, each
timed from its spawn to its ``READY`` line.  Times are scaled to the
machine's reference speed (see ``yardstick.py``); the unscaled figures
go to standard error.  With ``--trace 1`` one
child times the program's layers and reports the per-layer metrics.
The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits 2 without a result when the checkout has no ``src/repro``, when
a child fails, or when a child outlives ``CHILD_TIMEOUT`` seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from yardstick import scale, yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-subs-probe", "sim-sharded-wal", "gateway-2w")
#: Set-up samples per untraced run: the measured child plus this many
#: minus one set-up-only children.
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0


class ChildError(RuntimeError):
    pass


def spawn(args, workdir: Path, setup_only: bool, deadline: float):
    """Run one child; returns ((scaled, measured) set-up seconds,
    result or None)."""
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    if args.smoke:
        command.append("--smoke")
    before = yardstick()
    started = time.perf_counter()
    # Its own session, so the gateway workers it forks can be killed
    # with it.  A child that hangs is killed at the deadline, which
    # ends the read.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True)
    killer = threading.Timer(max(0.0, deadline - started), kill_group,
                             (child.pid,))
    killer.start()
    try:
        setup = None
        last = None
        for line in child.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - started
                setup = (scale(setup, before, yardstick()), setup)
            elif line.strip():
                last = line
        code = child.wait()
        if code != 0 or setup is None or last is None and not setup_only:
            raise ChildError(f"{args.workload} child exited with {code}")
        return setup, (None if setup_only else json.loads(last))
    finally:
        killer.cancel()
        kill_group(child.pid)
        child.wait()
        child.stdout.close()
        wait_group(child.pid)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of the child's group is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller rounds, for the benchmark's own "
                             "tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / (
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    deadline = time.perf_counter() + CHILD_TIMEOUT
    try:
        setups = []
        if not args.trace:
            for sample in range(SETUP_SAMPLES - 1):
                setup, _ = spawn(args, work / f"setup-{sample}", True,
                                 deadline)
                setups.append(setup)
        setup, result = spawn(args, work / "run", False, deadline)
        setups.append(setup)
    except (ChildError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = dict(result["metrics"], setup_s=(statistics.median(
            scaled for scaled, _measured in setups), "s"))
        measured = dict(result["measured"], setup_s=statistics.median(
            measured for _scaled, measured in setups))
        print("perfbench: measured, unscaled: " + json.dumps(measured),
              file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
