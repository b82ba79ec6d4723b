"""Cross-process writer lock with owner-pid liveness (``<root>/.lock``).

The store's writer lock has two duties: serialise writers that share a
root across processes, and *never wedge* when a writer dies holding it.
Both acquisition paths record the holder's pid in the lock file so a
stuck store is diagnosable over the wire (who holds — or last held —
the lock), and so staleness is detectable without the kernel's help:

* With :mod:`fcntl` (POSIX), the lock is an ``flock`` on the lock
  file.  The kernel releases a dead owner's lock automatically, so a
  writer killed mid-``put`` cannot wedge later writers; the recorded
  pid is pure observability (:func:`read_owner`).
* Without :mod:`fcntl`, the lock degrades to an exclusive-create pid
  file.  Here a dead owner *would* block every later writer forever,
  so acquisition reads the recorded pid and **breaks** locks whose
  owner is gone (``os.kill(pid, 0)`` raises).  Breaking is race-safe:
  the stale file is first atomically renamed aside via
  :func:`os.replace`, so of N concurrent breakers exactly one wins the
  rename — a *fresh* lock created after the break can never be
  unlinked by a racing breaker that read the old pid.

The pid is written with plain ``os.write`` on the held descriptor, not
the tmp + rename idiom: the lock file is advisory liveness metadata
scoped to the holder's lifetime, not durable store state — a torn pid
reads as "unknown owner", which the fallback treats as breakable only
after confirming no live process wrote it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

try:  # POSIX advisory file locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.errors import StoreError

#: Seconds between acquisition attempts when polling.
_POLL_INTERVAL = 0.02


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a process that is still running."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


def read_owner(path) -> Optional[int]:
    """The pid recorded in a lock file (``None``: missing/empty/garbled)."""
    try:
        text = Path(path).read_text(encoding="ascii", errors="replace")
    except OSError:
        return None
    try:
        pid = int(text.strip() or "0")
    except ValueError:
        return None
    return pid if pid > 0 else None


class StoreLock:
    """Exclusive cross-process lock on one path, pid-recorded.

    Use as a context manager or via :meth:`acquire` / :meth:`release`.
    ``timeout`` bounds how long acquisition waits on a *live* holder
    (``None`` blocks indefinitely, the store's historical behaviour);
    a dead holder never blocks — ``flock`` is kernel-released, and the
    pid-file fallback breaks stale owners itself.
    """

    def __init__(self, path, timeout: Optional[float] = None) -> None:
        self._path = Path(path)
        self._timeout = timeout
        self._fd: Optional[int] = None

    @property
    def path(self) -> Path:
        """The lock file's path."""
        return self._path

    def acquire(self) -> "StoreLock":
        """Take the lock (blocking, subject to ``timeout``)."""
        if self._fd is not None:
            raise StoreError(f"{self._path}: lock already held "
                             f"by this instance")
        if fcntl is not None:
            self._acquire_flock()
        else:
            self._acquire_pidfile()
        return self

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
            return
        os.close(fd)
        try:
            os.unlink(self._path)
        except OSError:  # pragma: no cover - raced by a breaker
            pass

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # -- flock path ----------------------------------------------------
    def _acquire_flock(self) -> None:
        fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o644)
        acquired = False
        try:
            if self._timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + self._timeout
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise StoreError(
                                f"{self._path}: lock held by "
                                f"{self._describe_owner()}; gave up "
                                f"after {self._timeout:.1f}s") from None
                        time.sleep(_POLL_INTERVAL)
            acquired = True
        finally:
            if not acquired:
                os.close(fd)
        self._record_pid(fd)
        self._fd = fd

    # -- pid-file fallback ---------------------------------------------
    def _acquire_pidfile(self) -> None:
        deadline = None if self._timeout is None \
            else time.monotonic() + self._timeout
        while True:
            try:
                fd = os.open(self._path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                owner = read_owner(self._path)
                if owner is None or not pid_alive(owner):
                    self._break_stale()
                    continue
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    raise StoreError(
                        f"{self._path}: lock held by "
                        f"{self._describe_owner()}; gave up after "
                        f"{self._timeout:.1f}s")
                time.sleep(_POLL_INTERVAL)
                continue
            self._record_pid(fd)
            self._fd = fd
            return

    def _break_stale(self) -> None:
        """Remove a lock file whose recorded owner is gone.

        The rename-aside makes breaking single-winner: ``os.replace``
        is atomic, so of N breakers exactly one moves the stale file
        (the rest see the path gone and re-enter the acquire loop),
        and a fresh lock created after the rename is never collateral.
        """
        aside = self._path.with_name(self._path.name + ".stale")
        try:
            os.replace(self._path, aside)
        except OSError:
            return  # another breaker won, or the owner released
        try:
            os.unlink(aside)
        except OSError:  # pragma: no cover - raced unlink
            pass

    def _record_pid(self, fd: int) -> None:
        os.ftruncate(fd, 0)
        os.lseek(fd, 0, os.SEEK_SET)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))

    def _describe_owner(self) -> str:
        owner = read_owner(self._path)
        if owner is None:
            return "an unknown process"
        state = "alive" if pid_alive(owner) else "dead"
        return f"pid {owner} ({state})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self._fd is not None else "free"
        return f"StoreLock({str(self._path)!r}, {state})"
