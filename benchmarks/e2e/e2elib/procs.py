"""Process hygiene: launch the program, bound every wait, leave nothing.

Each launch gets its own process group, so one ``SIGKILL`` of the group
also reaches the cluster's worker processes (they outlive a killed
frontend otherwise).  Work dirs live under the benchmark's own
directory — the benchmark may write only inside its checkout — and are
removed at teardown, after a check that no process of the group
survived.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

#: No single wait on a child may exceed this; a hung child fails the run.
WAIT_LIMIT_S = 30.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: The CPUs this process may use before :func:`pin_to_one_cpu` narrows them.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))


class HarnessError(RuntimeError):
    """The program hung, died, or left something behind."""


def pin_to_one_cpu() -> int:
    """Confine this process, and so every program it launches, to one CPU.

    The load generator and the program take turns on a closed loop, so
    one CPU serves them without waiting; spread over two, every request
    pays cross-CPU wake-ups whose cost depends on where the scheduler
    last left each thread, and a run settles into a faster or a slower
    regime by chance.  Measured alternately on this host, six runs each
    of serve-hot's query phase: two connections on two CPUs, p50
    IQR/median 11.9 % (range 16 %); one connection, everything on one
    CPU, 1.7 % (range 3.2 %).  The other CPUs are left to the rest of
    the machine.  The last allowed CPU: device interrupts land on CPU 0.
    """
    cpu = max(ALLOWED_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextmanager
def all_cpus() -> Iterator[None]:
    """Lift the pin for a probe of the program's own parallelism."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALLOWED_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def program_env() -> Dict[str, str]:
    """The program's environment: only the import path is added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"  # the URL line must not sit in a pipe buffer
    return env


def group_pids(pgid: int) -> List[int]:
    """Live pids whose process group is ``pgid`` (zombies excluded)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we were listing
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return sorted(pids)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time the process has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


class Program:
    """One launch of the program, in a process group of its own."""

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self._log = open(log_path, "ab")
        try:
            self.process = subprocess.Popen(
                list(argv), env=program_env(), cwd=str(REPO_ROOT),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=self._log, start_new_session=True)
        except BaseException:
            self._log.close()
            raise
        self.pgid = self.process.pid
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for raw in self.process.stdout:
            self._lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        self._lines.put(None)

    def wait_for_line(self, prefix: str, limit: float = WAIT_LIMIT_S) -> str:
        """The first stdout line starting with ``prefix``, within ``limit``."""
        deadline = time.monotonic() + limit
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessError(f"no {prefix!r} line within {limit:.0f}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise HarnessError(
                    f"program exited (code {self.process.poll()}) before "
                    f"printing {prefix!r}; see {self._log.name}")
            if line.startswith(prefix):
                return line

    def pids(self) -> List[int]:
        return group_pids(self.pgid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def kill(self) -> None:
        """SIGKILL the whole group, reap it, and check nothing survived."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group already ended
        try:
            self.process.wait(timeout=WAIT_LIMIT_S)
        except subprocess.TimeoutExpired:
            raise HarnessError("program did not die on SIGKILL") from None
        self._reader.join(timeout=WAIT_LIMIT_S)
        self.process.stdout.close()
        self._log.close()
        deadline = time.monotonic() + WAIT_LIMIT_S
        while group_pids(self.pgid):
            if time.monotonic() > deadline:
                raise HarnessError(
                    f"processes survived SIGKILL of group {self.pgid}: "
                    f"{group_pids(self.pgid)}")
            time.sleep(0.005)


class Harness:
    """Owns every work dir and program of one benchmark run."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                          dir=WORK_ROOT))
        self._programs: List[Program] = []
        self._dirs = 0

    def work_dir(self, tag: str) -> Path:
        """A fresh private directory for one epoch."""
        self._dirs += 1
        path = self.root / f"{self._dirs:02d}-{tag}"
        path.mkdir()
        return path

    def python(self, args: Sequence[str], log_path: Path) -> Program:
        """Launch ``python <args>`` with the program's environment."""
        program = Program([sys.executable, *args], log_path)
        self._programs.append(program)
        return program

    def stop(self, program: Program) -> None:
        program.kill()
        self._programs.remove(program)

    def close(self) -> None:
        """Kill whatever still runs, then remove the work dirs."""
        errors = []
        for program in list(self._programs):
            try:
                self.stop(program)
            except HarnessError as exc:
                errors.append(str(exc))
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass
        if errors:
            raise HarnessError("; ".join(errors))

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root``."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def serve_offers_codec_bin() -> bool:
    """Whether ``repro.cli serve`` still takes ``--codec bin``.

    The roadmap plans to make the binary format the only one; once the
    flag is gone the program's default is what this benchmark wants.
    """
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--help"],
        env=program_env(), cwd=str(REPO_ROOT), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=WAIT_LIMIT_S)
    if result.returncode != 0:
        raise HarnessError(f"`repro.cli serve --help` failed: {result.stderr[-500:]}")
    return "--codec" in result.stdout and "bin" in result.stdout
