"""Watchdogged episodes.

An episode is one call of a benchmark function in a forked child that
leads its own session (so also its own process group), under an
address-space limit and a wall deadline.  The parent only waits; when
the deadline passes it kills the whole group, and after every episode
-- clean or not -- it waits until the group is empty and unlinks the
``/dev/shm`` blocks the child's process launcher created.

Without this a single hung ``proc+ring`` launch stalls the whole set for
``spmd(timeout=)`` seconds or eats the box's memory (observed at the
seed: one spinning rank at 8.5 GB RSS).
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import select
import signal
import time
import traceback
from dataclasses import dataclass, field

#: ``RLIMIT_AS`` of every episode: a runaway rank gets MemoryError long
#: before the box swaps.
ADDRESS_SPACE_LIMIT = 4 << 30

#: Deadline slack on top of an episode's timed window.
DEADLINE_SLACK_S = 15.0

#: How long a group may outlive its leader's exit before it is killed.
_GROUP_GRACE_S = 2.0

#: How long to wait for a killed group to disappear.
_KILL_WAIT_S = 5.0

_SHM_DIR = "/dev/shm"


@dataclass
class EpisodeResult:
    """Outcome of one episode.

    ``status`` is ``ok`` (the function returned; ``value`` holds what it
    returned), ``raised`` (it raised; ``error`` holds the traceback),
    ``crashed`` (the child ended without reporting) or ``hung`` (killed
    at the deadline).
    """

    status: str
    value: object = None
    error: str = ""
    wall_s: float = 0.0
    #: Shared-memory blocks of this episode that were still present
    #: after it ended (already unlinked when this is returned).
    shm_left: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def why(self) -> str:
        """One line on what went wrong ("" when nothing did)."""
        return self.error.strip().splitlines()[-1] if self.error else ""


def launcher_blocks(pid: int) -> list[str]:
    """``/dev/shm`` entries created by the process launcher running in
    process ``pid`` (``repro_<pid>_<n>_...``, see ``ProcFabric``)."""
    prefix = f"repro_{pid}_"
    try:
        return sorted(n for n in os.listdir(_SHM_DIR)
                      if n.startswith(prefix))
    except FileNotFoundError:
        return []


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants
    (``PR_SET_CHILD_SUBREAPER``), so that "the group has ended" can be
    waited for instead of guessed.  Best effort: without it orphans go
    to init and :func:`_reap_group` falls back to polling."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int, kill_now: bool) -> None:
    """Wait until process group ``pgid`` is empty; kill it at once when
    ``kill_now``, else after a grace period."""
    t0 = time.perf_counter()
    killed = False
    while True:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if not _group_alive(pgid):
            return
        waited = time.perf_counter() - t0
        if not killed and (kill_now or waited > _GROUP_GRACE_S):
            _kill_group(pgid)
            killed = True
            t0 = time.perf_counter()
        elif killed and waited > _KILL_WAIT_S:
            return  # zombies that some other reaper owns
        time.sleep(0.005)


def _poll_forever(cpu: int, parent: int) -> None:
    """Body of an idle poller; ends when its parent does."""
    try:
        os.sched_setaffinity(0, {cpu})
        try:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        except (OSError, AttributeError):
            os.nice(19)
        while os.getppid() == parent:
            for _ in range(200000):
                pass
    finally:
        os._exit(0)


def start_idle_pollers(cpus) -> None:
    """Keep ``cpus`` from ever going idle for the rest of this episode:
    one ``SCHED_IDLE`` busy loop pinned to each, which any runnable rank
    thread preempts at once.  Call it inside an episode.

    On this virtual machine an idle vCPU halts, and waking a halted
    vCPU costs whatever the hypervisor's halt polling happens to allow
    at that moment: the same ``rpc_proc`` launch read 250 us for
    seconds, then 450-750 us for seconds.  With the pollers (a
    userspace ``idle=poll``) it reads 225-260 us throughout.

    They are processes of their own, so no rank is charged their CPU
    time, and they must share the ranks' session: the kernel's
    autogroup gives every session an equal share of a core, and from
    another session a poller would take half of it.  They end with the
    episode's leader, or with its process group.
    """
    me = os.getpid()
    for cpu in cpus:
        if os.fork() == 0:
            _poll_forever(cpu, me)


def _child(fn, args, wfd: int, poll_cpus) -> None:
    """Runs in the forked child; never returns."""
    code = 1
    try:
        os.setsid()
        resource.setrlimit(resource.RLIMIT_AS,
                           (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
        start_idle_pollers(poll_cpus)
        try:
            msg = {"status": "ok", "value": fn(*args)}
        except BaseException:  # reported to the parent, then we exit
            msg = {"status": "raised", "error": traceback.format_exc()}
        data = json.dumps(msg).encode()
        with os.fdopen(wfd, "wb") as w:
            w.write(data)
        code = 0
    finally:
        os._exit(code)


def run_episode(fn, args=(), *, deadline_s: float,
                poll_cpus=()) -> EpisodeResult:
    """Run ``fn(*args)`` as one watchdogged episode, with idle pollers
    (:func:`start_idle_pollers`) on ``poll_cpus``.

    ``fn`` must return something ``json`` can carry.  The calling
    process must be single-threaded in Python (it forks).
    """
    _adopt_orphans()
    t0 = time.perf_counter()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(fn, args, wfd, poll_cpus)
    os.close(wfd)
    chunks: list[bytes] = []
    hung = False
    try:
        while True:
            left = deadline_s - (time.perf_counter() - t0)
            if left <= 0:
                hung = True
                break
            ready, _, _ = select.select([rfd], [], [], min(left, 0.5))
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
    if hung:
        _kill_group(pid)
    os.waitpid(pid, 0)
    # The leader is gone; ranks, the multiprocessing resource tracker
    # and anything else it started share its group.
    _reap_group(pid, kill_now=hung)
    left_over = launcher_blocks(pid)
    for name in left_over:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:
            pass
    wall = time.perf_counter() - t0
    if hung:
        return EpisodeResult("hung", wall_s=wall, shm_left=left_over,
                             error=f"killed at the {deadline_s:.1f} s "
                                   f"deadline")
    try:
        msg = json.loads(b"".join(chunks))
    except ValueError:
        return EpisodeResult("crashed", wall_s=wall, shm_left=left_over,
                             error="child ended without a result")
    return EpisodeResult(msg["status"], value=msg.get("value"),
                         error=msg.get("error", ""), wall_s=wall,
                         shm_left=left_over)
