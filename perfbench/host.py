"""Host-safe Ray session for one benchmark run.

- Logical CPUs are the actor-pool size plus one slot for the read and
  write tasks. With ``num_cpus`` equal to the pool size, the actor holds
  the only slot and read/write tasks never run: the flagship run stalls,
  whatever the physical CPU count.
- Workers get the repository root on ``PYTHONPATH`` through
  ``runtime_env``, so they import the package whatever the working directory,
  and a fixed ``PYTHONHASHSEED``, so dict and set layouts do not vary
  from one worker process to the next.
- Ray's session directory lives in the benchmark's work directory when
  the path is short enough for Ray's sockets.
- A watchdog turns a stall into a fast failure: it prints the tail of
  Ray's error logs, interrupts the main thread, and if that does not end
  the run, kills the Ray processes and exits with ``WATCHDOG_EXIT``.
"""

from __future__ import annotations

import glob
import os
import signal
import sys
import threading
import time
import _thread

POOL = 1
WATCHDOG_EXIT = 3


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(p) for p in f.read().split()]
    except OSError:
        return []


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        kids = _children(todo.pop())
        out.extend(kids)
        todo.extend(kids)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def rss_mb() -> float:
    """Summed VmRSS of this process and its Ray worker processes."""
    me = os.getpid()
    pids = [me] + [p for p in descendants(me) if _is_worker(p)]
    return sum(_status_kb(p, "VmRSS") for p in pids) / 1024.0


class RssSampler:
    """Peak of ``rss_mb()`` sampled every ``interval_s`` on a thread.
    VmHWM read at the end of a run would miss each pass's actor process,
    which has exited by then."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval_s):
            self.peak_mb = max(self.peak_mb, rss_mb())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, rss_mb())
        return False


# Ray puts sockets at <temp dir>/session_<date>_<time>_<pid>/sockets/
# plasma_store; AF_UNIX limits that path to 107 bytes.
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def ray_temp_dir(work_dir: str) -> str | None:
    """Ray's session directory inside the work directory, or None (Ray's
    default) when the checkout path is too long for Ray's sockets."""
    path = os.path.abspath(os.path.join(work_dir, "r"))
    return path if len(path) + _SOCKET_SUFFIX <= 107 else None


class Session:
    """``with Session(root, work_dir, timeout_s):`` — Ray up, watchdog
    armed, and on exit Ray down with every process it started ended."""

    def __init__(self, repo_root: str, work_dir: str, timeout_s: float):
        self.repo_root = repo_root
        self.timeout_s = timeout_s
        self.ray_dir = ray_temp_dir(work_dir)
        self._done = threading.Event()
        self._thread = None

    def __enter__(self):
        import ray

        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()
        if self.ray_dir is None:
            print("note: checkout path too long for Ray sockets; Ray uses its "
                  "default temp directory", file=sys.stderr)
        ray.init(
            address="local",  # never attach to a cluster someone else started
            num_cpus=POOL + 1,
            object_store_memory=512 * 2**20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.ray_dir,
            runtime_env={"env_vars": {"PYTHONPATH": self.repo_root, "PYTHONHASHSEED": "0"}},
        )
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return self

    def __exit__(self, *exc):
        import ray

        try:
            ray.shutdown()
        finally:
            self._done.set()
            reap(os.getpid())
        return False

    def error_tail(self, lines: int = 15) -> str:
        """Last lines of the most recently written Ray error logs and of
        Ray Data's executor log."""
        logs = os.path.join(self.ray_dir or "/tmp/ray", "session_latest", "logs")
        paths = sorted(glob.glob(os.path.join(logs, "*.err"))
                       + glob.glob(os.path.join(logs, "ray-data", "ray-data.log")),
                       key=os.path.getmtime)
        out = []
        for path in paths[-4:]:
            try:
                with open(path, errors="replace") as f:
                    tail = f.readlines()[-lines:]
            except OSError:
                continue
            if tail:
                out.append(f"== {os.path.basename(path)}\n" + "".join(tail))
        return "\n".join(out)

    def _watch(self):
        if self._done.wait(self.timeout_s):
            return
        print(f"watchdog: run exceeded {self.timeout_s:.0f}s; Ray error tail:\n"
              f"{self.error_tail()}", file=sys.stderr, flush=True)
        _thread.interrupt_main()
        if self._done.wait(20):
            return
        reap(os.getpid())
        os._exit(WATCHDOG_EXIT)


def settle(timeout_s: float = 15.0) -> None:
    """Wait until every logical CPU is free again. The actor pool of the
    previous pass is released only once the garbage collector breaks the
    reference cycles that hold its dataset; until then its actor keeps a
    CPU slot, and the next pass's read tasks wait (Ray's own periodic GC
    request came 15-20 s later)."""
    import gc

    import ray

    gc.collect()
    deadline = time.monotonic() + timeout_s
    while (ray.available_resources().get("CPU", 0) < POOL + 1
           and time.monotonic() < deadline):
        time.sleep(0.02)


def _collect_exited() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def _alive(pid: int) -> list[int]:
    _collect_exited()
    return descendants(pid)


def reap(pid: int, grace_s: float = 10.0) -> None:
    """Wait for every descendant process to end; SIGKILL what remains
    after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in descendants(pid):
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while _alive(pid) and time.monotonic() < deadline + 5:
        time.sleep(0.05)
