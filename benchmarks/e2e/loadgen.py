"""The load generator and the processes under test.

One load-generating process drives every workload: at most
``os.cpu_count()`` client threads, each holding one keep-alive
``http.client`` connection opened with default socket options, in a
closed loop (a client sends its next request only after the previous
answer arrived).  The processes under test are children: ``python -m
repro serve --port 0`` with default flags, or the library runner
``child.py``.  Set-up time is measured by spawning the child several
times and taking the median time to ready.

Each child leads its own process group, and the benchmark registers as
a child subreaper, so processes a child leaves behind (the
multiprocessing resource tracker of a ``run_batch`` outlives the runner
child by a moment) come back to the benchmark, which waits for every one
of them before it goes on.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from inputs import HERE, REPO_SRC

REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
#: Spawns per set-up measurement; the reported ``setup_s`` is their median.
#: One start takes 0.1-0.25 s and a single run sees starts spread by a
#: fifth around their median, so nine keep the median's sampling error
#: small next to the host's own drift.
SETUP_SPAWNS = 9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``% of
    the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: String hashing of the processes under test and their workers.  Set
#: order follows the hash seed, and the library's speed appears to follow
#: that order: in alternating dataflow runs on one input, hash seeds 1 and
#: 3 averaged 188-197 ops/s and seeds 0 and 2 167-174 (six runs each, 2
#: CPUs).  A random seed per process would add that to every run's noise;
#: a fixed one (0 disables randomization) makes every run hash alike.
HASH_SEED = "0"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB (2**20 bytes)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: ``prctl`` option making this process the reaper of its orphaned
#: descendants (Linux).
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`stop` can wait for them.

    Without it (not Linux), an orphan goes to init and :func:`stop` can
    only watch its process group empty.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def end_group(pgid: int, timeout: float = 20.0) -> None:
    """Wait until no process of group ``pgid`` is left; kill it at ``timeout``.

    Members orphaned to this process are reaped here as they exit.
    """
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            if os.waitpid(-pgid, os.WNOHANG)[0]:
                continue
        except ChildProcessError:
            pass
        if not _group_alive(pgid):
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"process group {pgid} outlived SIGKILL")
            os.killpg(pgid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + timeout
        time.sleep(0.002)


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Ask a child to drain (SIGTERM), kill it if it does not exit, then
    wait for every process it started (its process group) to end."""
    try:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        end_group(proc.pid, timeout)
    finally:
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()


def stop_own_children(timeout: float = 20.0) -> None:
    """End what this process started itself: the resource tracker an
    in-process ``run_batch`` leaves running, and any child not yet reaped."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError("a child process outlived SIGKILL")
            for child in _children():
                os.kill(child, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + timeout
        time.sleep(0.002)


def _children() -> List[int]:
    """Pids whose parent is this process, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ...": comm may hold spaces.
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == os.getpid():
            found.append(int(entry))
    return found


class Server:
    """One ``repro serve`` child with default flags on an ephemeral port."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=REPO_ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"repro serve did not announce its port: {line!r}")
            self.host, port = line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)
            self.port = int(port)
            self._await_health()
        except BaseException:
            stop(self.proc)
            raise
        self.ready_s = time.perf_counter() - started

    def _await_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve never answered /healthz with 200")
            time.sleep(0.002)

    def connect(self) -> "Client":
        return Client(self.host, self.port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        stop(self.proc)


class Child:
    """The library runner child: ready once its workload's modules import."""

    def __init__(self, workload: str) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), workload],
            cwd=REPO_ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            stop(self.proc)
            raise RuntimeError(f"runner child failed to start: {line!r}")
        self.ready_s = time.perf_counter() - started

    def run(self, command: dict, timeout: float) -> dict:
        """Send one command; return the child's JSON answer."""
        try:
            out, _ = self.proc.communicate(json.dumps(command) + "\n", timeout=timeout)
        finally:
            stop(self.proc)
        if self.proc.returncode != 0:
            raise RuntimeError(f"runner child exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self) -> None:
        stop(self.proc)


def measure_setup(spawn: Callable[[], object]) -> Tuple[object, float]:
    """Spawn ``SETUP_SPAWNS`` times; keep the last child, stop the rest.

    Returns ``(child, median seconds to ready)``.
    """
    times = []
    child = None
    for _ in range(SETUP_SPAWNS):
        if child is not None:
            child.stop()
        child = spawn()
        times.append(child.ready_s)
    return child, statistics.median(times)


class Client:
    """One keep-alive HTTP/1.1 connection; default socket options."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, payload: bytes) -> Tuple[int, Optional[dict], float, float]:
        """(status, decoded body or None, send time, round-trip seconds)."""
        started = time.perf_counter()
        try:
            self.conn.request(
                "POST", path, body=payload, headers={"Content-Type": "application/json"}
            )
            response = self.conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - started
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            return 0, None, started, time.perf_counter() - started
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        return response.status, body, started, elapsed

    def close(self) -> None:
        self.conn.close()


def closed_loop(
    clients: int,
    step: Callable[[int, int], List[dict]],
    warmup: float,
    seconds: float,
) -> Tuple[List[dict], float]:
    """Run ``clients`` closed-loop threads through warm-up, then the window.

    ``step(client, n)`` performs client ``client``'s ``n``-th operation and
    returns one record per request, each with its send time ``t0`` and
    round trip ``seconds``.  A client starts no operation after the window
    closes.  Returns the records sent inside the window ``[warm_end,
    warm_end + seconds)`` and the window's length, measured to the last of
    them to complete, so no request is cut short.
    """
    if not 1 <= clients <= (os.cpu_count() or 1):
        raise ValueError(f"{clients} clients exceeds nproc={os.cpu_count()}")
    warm_end = time.perf_counter() + warmup
    stop_at = warm_end + seconds
    per_client: List[List[dict]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []

    def drive(client: int) -> None:
        try:
            n = 0
            while time.perf_counter() < stop_at:
                per_client[client].extend(step(client, n))
                n += 1
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)

    threads = [threading.Thread(target=drive, args=(c,)) for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    window = [r for records in per_client for r in records if warm_end <= r["t0"] < stop_at]
    if not window:
        raise RuntimeError("no request was sent inside the window")
    return window, max(r["t0"] + r["seconds"] for r in window) - warm_end
