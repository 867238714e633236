"""The episode watchdog: deadlines, process groups, shared memory."""

import os
import subprocess
import time

import episode


def _ok(x):
    return {"twice": 2 * x, "pid": os.getpid()}


def _raises():
    raise RuntimeError("boom")


def _crashes():
    os._exit(7)


def _hangs(pidfile):
    # what a hung proc launch looks like: blocks in /dev/shm named after
    # the launcher's pid, a rank process still running, nobody returning
    me = os.getpid()
    for suffix in ("1_r0", "1_r1", "1_ring"):
        with open(f"/dev/shm/repro_{me}_{suffix}", "wb") as f:
            f.write(b"x" * 4096)
    rank = subprocess.Popen(["sleep", "600"])
    with open(pidfile, "w") as f:
        f.write(f"{me} {rank.pid}")
    while True:
        time.sleep(1)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_ok_episode_returns_the_value_from_its_own_session():
    res = episode.run_episode(_ok, (21,), deadline_s=20)
    assert res.status == "ok" and res.ok
    assert res.value["twice"] == 42
    assert res.value["pid"] != os.getpid()
    assert res.shm_left == []


def test_raising_episode_reports_the_traceback():
    res = episode.run_episode(_raises, deadline_s=20)
    assert res.status == "raised" and not res.ok
    assert "RuntimeError: boom" in res.error


def test_crashing_episode_is_told_from_a_raising_one():
    res = episode.run_episode(_crashes, deadline_s=20)
    assert res.status == "crashed"


def test_hanging_episode_is_killed_at_its_deadline_and_leaves_no_shm(
        tmp_path):
    pidfile = tmp_path / "pids"
    t0 = time.perf_counter()
    res = episode.run_episode(_hangs, (str(pidfile),), deadline_s=1.5)
    wall = time.perf_counter() - t0
    assert res.status == "hung"
    assert 1.5 <= wall < 1.5 + 3.0
    leader, rank = map(int, pidfile.read_text().split())
    assert not _alive(leader)
    assert not _alive(rank), "the whole process group must be killed"
    assert sorted(res.shm_left) == [f"repro_{leader}_1_r0",
                                    f"repro_{leader}_1_r1",
                                    f"repro_{leader}_1_ring"]
    assert episode.launcher_blocks(leader) == []


def _my_children():
    with open(f"/proc/self/task/{os.getpid()}/children") as f:
        return [int(p) for p in f.read().split()]


def test_idle_pollers_share_the_episodes_session_and_end_with_it():
    cpu = sorted(os.sched_getaffinity(0))[0]
    res = episode.run_episode(_my_children, deadline_s=20,
                              poll_cpus=[cpu])
    assert res.ok
    assert len(res.value) == 1, "one poller per cpu, started inside"
    assert not _alive(res.value[0])
