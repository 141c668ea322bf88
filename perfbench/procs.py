"""Process control: the server's process group, the process tree's memory, teardown."""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

_PR_SET_CHILD_SUBREAPER = 36
_URL_RE = re.compile(r"listening on (http://\S+)")


def become_subreaper() -> None:
    """Adopt orphaned descendants (workers whose server died), so they can be reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def reap() -> None:
    """Collect every exited child (including adopted orphans) without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            data = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return data[data.rindex(")") + 2 :].split()


def _pids() -> list[int]:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]


def tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    parents: dict[int, list[int]] = {}
    for pid in _pids():
        fields = _stat(pid)
        if fields is not None and fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(pid)
    found, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def group(pgid: int) -> list[int]:
    """Live (non-zombie) members of a process group."""
    members = []
    for pid in _pids():
        fields = _stat(pid)
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(pid)
    return members


def cpu_seconds(pid: int) -> float:
    fields = _stat(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class RssSampler:
    """Peak RSS of a set of processes (``pids()`` lists them), sampled in the background."""

    def __init__(self, pids, interval: float = 0.5) -> None:
        self.pids = pids
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        self.peak_mb = max(self.peak_mb, peak_rss_mb(self.pids()))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.sample()
        self._stop.set()
        self._thread.join()


def busy_members(pgid: int, exclude: int, window: float = 0.5, share: float = 0.5) -> int:
    """How many members of the group (other than ``exclude``) burn CPU right now."""
    members = [pid for pid in group(pgid) if pid != exclude]
    before = {pid: cpu_seconds(pid) for pid in members}
    time.sleep(window)
    return sum(1 for pid in members if cpu_seconds(pid) - before[pid] > share * window)


def kill_group(pgid: int, grace: float = 3.0) -> None:
    """SIGTERM the whole group, SIGKILL what is left after ``grace``; wait until it is gone."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline:
            reap()
            if not group(pgid):
                return
            time.sleep(0.05)
    reap()


def kill_descendants() -> None:
    """SIGKILL every process still below this one and reap them (the last resort
    after an error, so a failed run leaves nothing running)."""
    for _ in range(50):
        left = tree(os.getpid())[1:]
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
        reap()


class Server:
    """``python -m repro.server`` (or the traced launcher) in its own process group."""

    def __init__(self, root: str, store: str, workers: int = 2, trace_dir: str | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [sys.executable, os.path.join(root, "perfbench", "launcher.py"), trace_dir]
        command += ["--port", "0", "--workers", str(workers), "--store", store]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.pgid = self.process.pid
        self.url: str | None = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``/healthz`` answers; returns seconds since spawn."""
        line = self.process.stdout.readline()
        match = _URL_RE.search(line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = match.group(1)
        deadline = self.started + timeout
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                    if reply.status == 200:
                        return time.perf_counter() - self.started
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def workers(self) -> list[int]:
        return [pid for pid in group(self.pgid) if pid != self.process.pid]

    def stop(self) -> None:
        kill_group(self.pgid)
        self.process.wait()
        self.process.stdout.close()
