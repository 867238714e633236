"""World-free tests of the shard state machine (containers/shard.py).

No spmd region anywhere in this file: a :class:`Shard` / :class:`HostedMap`
is driven directly, which is the point of having them.

* the exhaustive transition table — every (state, event) pair either
  lands in the stated state with the stated ``epoch`` / ``repl_epoch``
  bumps or raises the stated exception (docs/API.md "Replication and
  failover" prints the same table);
* a hypothesis stateful model of a primary/backup pair against a dict
  oracle;
* ``snapshot()`` -> tagged stream -> ``from_snapshot()`` and
  replication-record round trips, neither touching pickle;
* the changed-keys log and the client cache's three rules: unit cases,
  then a hypothesis stateful model of two :class:`ShardCache` clients
  against a primary and its backup.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.containers import KvRedirect, KvStalePrimary
from repro.containers import shard as shard_mod
from repro.containers.shard import (
    BACKUP,
    PRIMARY,
    HostedMap,
    Shard,
    ShardCache,
    ShardSnapshot,
)
from repro.gasnet.wire import preencode

ME, OTHER, THIRD = 1, 0, 2      # hosting rank, the other copy, a bystander
SID = 3
EPOCH, REPL = 5, 2              # where every non-absent state starts


# ---------------------------------------------------------------------------
# (a) the transition table
# ---------------------------------------------------------------------------

def _hosting(role: str) -> HostedMap:
    hm = HostedMap(nshards=4)
    if role == PRIMARY:
        sh = Shard(SID, PRIMARY, ME, OTHER)
    else:
        sh = Shard(SID, BACKUP, OTHER, ME)
    sh.store.update({"a": 1, "b": 2})
    sh.epoch, sh.repl_epoch = EPOCH, REPL
    hm.shards[SID] = sh
    return hm


def _moving() -> HostedMap:
    hm = _hosting(PRIMARY)
    hm.shards[SID].begin_move(THIRD)
    return hm


def _tombstoned() -> HostedMap:
    hm = HostedMap(nshards=4)
    hm.moved[SID] = THIRD
    return hm


STATES = {
    "primary": lambda: _hosting(PRIMARY),
    "backup": lambda: _hosting(BACKUP),
    "moving": _moving,
    "absent": lambda: HostedMap(nshards=4),
    "tombstoned": _tombstoned,
}


def _observe(hm: HostedMap) -> tuple:
    """(state name, epoch, repl_epoch) — the whole observable state."""
    sh = hm.shards.get(SID)
    if sh is None:
        return ("tombstoned" if SID in hm.moved else "absent", None, None)
    name = "moving" if sh.moving_to is not None else sh.role
    return (name, sh.epoch, sh.repl_epoch)


def _snap(repl_epoch: int, as_primary: bool = False) -> ShardSnapshot:
    return ShardSnapshot({"z": 26}, [(7, 1, 40, 26)], 40, repl_epoch,
                         OTHER, ME, as_primary)


def _replay(repl_epoch):
    return lambda hm: hm.replay(SID, repl_epoch, [("put", {"r": 0}, 9)])


def _read(hm):
    sh = hm.lookup(SID)
    sh.require()
    return sh.lookup("a")


EVENTS = {
    # client ops, as the owner-side resolve step drives them
    "put": lambda hm: hm.lookup(SID).put({"k": 0}),
    "delete": lambda hm: hm.lookup(SID).delete(["a"]),
    "delete-absent-key": lambda hm: hm.lookup(SID).delete(["nope"]),
    "update": lambda hm: hm.lookup(SID).update(
        9, 1, "a", lambda old, x: old + x, (1,)),
    "read": _read,
    # the replication log arriving at this copy
    "replay-older": _replay(REPL - 1),
    "replay-equal": _replay(REPL),
    "replay-newer": _replay(REPL + 1),
    # full-copy installs
    "install-older": lambda hm: hm.install(SID, _snap(REPL - 1), ME),
    "install-newer": lambda hm: hm.install(SID, _snap(REPL + 1), ME),
    "install-as-primary": lambda hm: hm.install(
        SID, _snap(REPL + 1, as_primary=True), ME),
    # role changes
    "promote": lambda hm: hm.lookup(SID).promote(ME, THIRD),
    "begin-move": lambda hm: hm.lookup(SID).begin_move(THIRD),
    "abort-move": lambda hm: hm.lookup(SID).abort_move(),
    "finish-move": lambda hm: hm.retire(SID, THIRD),
    "drop-older": lambda hm: hm.drop(SID, REPL, THIRD),
    "drop-newer": lambda hm: hm.drop(SID, REPL + 1, THIRD),
}

#: Outcome notation.  ``("state", d_epoch, d_repl_epoch)``: the copy is
#: in that state afterwards with the counters moved by those deltas
#: from (EPOCH, REPL); ``=N`` sets a counter absolutely (installs, and
#: replay's max()).  ``(Exc, hint)``: the event is illegal and raises
#: Exc pointing at rank ``hint``; the state does not change.
SAME_P, SAME_B, SAME_M = ("primary", 0, 0), ("backup", 0, 0), ("moving", 0, 0)
GONE, TOMB = ("absent", None, None), ("tombstoned", None, None)
TO_PRIMARY = (KvRedirect, OTHER)        # a backup points at its primary
TO_TARGET = (KvRedirect, THIRD)         # a frozen / retired copy: the target
NO_HINT = (KvRedirect, None)
WRITTEN = ("primary", 1, 0)
INSTALLED_B = ("backup", "=40", "=%d" % (REPL + 1))
INSTALLED_P = ("primary", "=41", "=%d" % (REPL + 1))

TABLE = {
    # event:           primary, backup, moving, absent, tombstoned
    "put":             [WRITTEN, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "delete":          [WRITTEN, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "delete-absent-key": [SAME_P, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "update":          [WRITTEN, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "read":            [SAME_P, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "replay-older":    [(KvStalePrimary, ME), (KvStalePrimary, OTHER),
                        (KvStalePrimary, ME), (KvStalePrimary, None),
                        (KvStalePrimary, THIRD)],
    "replay-equal":    [("primary", "=9", 0), ("backup", "=9", 0),
                        ("moving", "=9", 0), (KvStalePrimary, None),
                        (KvStalePrimary, THIRD)],
    "replay-newer":    [("primary", "=9", 0), ("backup", "=9", 0),
                        ("moving", "=9", 0), (KvStalePrimary, None),
                        (KvStalePrimary, THIRD)],
    "install-older":   [SAME_P, SAME_B, SAME_M,
                        ("backup", "=40", "=%d" % (REPL - 1)),
                        ("backup", "=40", "=%d" % (REPL - 1))],
    "install-newer":   [INSTALLED_B] * 5,
    "install-as-primary": [INSTALLED_P] * 5,
    "promote":         [(KvRedirect, ME), ("primary", 1, 1), TO_TARGET,
                        NO_HINT, TO_TARGET],
    "begin-move":      [SAME_M, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "abort-move":      [SAME_P, SAME_B, SAME_P, NO_HINT, TO_TARGET],
    "finish-move":     [TOMB] * 5,
    "drop-older":      [SAME_P, SAME_B, SAME_M, GONE, TOMB],
    "drop-newer":      [TOMB, TOMB, TOMB, GONE, TOMB],
}


def test_transition_table_is_exhaustive():
    assert set(TABLE) == set(EVENTS)
    assert all(len(row) == len(STATES) for row in TABLE.values())


def _expected_counter(start, delta):
    if isinstance(delta, str):
        return int(delta[1:])
    return start + delta


@pytest.mark.parametrize(
    "event,state", list(itertools.product(EVENTS, STATES)))
def test_transition(event, state):
    hm = STATES[state]()
    before = _observe(hm)
    expect = TABLE[event][list(STATES).index(state)]
    if isinstance(expect[0], type):
        exc_type, hint = expect
        with pytest.raises(exc_type) as ei:
            EVENTS[event](hm)
        got = (ei.value.hint if exc_type is KvRedirect
               else ei.value.new_primary)
        assert got == hint
        assert _observe(hm) == before       # illegal events change nothing
        return
    EVENTS[event](hm)
    name, d_epoch, d_repl = expect
    if d_epoch is None:
        assert _observe(hm) == expect
    else:
        assert _observe(hm) == (name, _expected_counter(EPOCH, d_epoch),
                                _expected_counter(REPL, d_repl))
    if name == "tombstoned" and before[0] != "tombstoned":
        assert hm.moved[SID] == THIRD


def test_install_clears_the_tombstone_and_takes_the_hosting_rank():
    hm = _tombstoned()
    sh = hm.install(SID, _snap(REPL + 1, as_primary=True), ME)
    assert SID not in hm.moved
    assert (sh.primary, sh.role, sh.store) == (ME, PRIMARY, {"z": 26})
    assert sh.result_of(7, 1) == (40, 26)   # dedup records travel along
    backup = hm.install(SID, _snap(REPL + 2), ME)
    assert (backup.primary, backup.role) == (OTHER, BACKUP)


def test_delete_record_lists_only_the_keys_that_were_there():
    sh = _hosting(PRIMARY).shards[SID]
    assert sh.delete(["a", "nope"]) == ("del", ["a"], EPOCH + 1)
    assert sh.store == {"b": 2}


def test_update_is_applied_once_per_op_id():
    sh = _hosting(PRIMARY).shards[SID]

    def add(old, x):
        return old + x

    rec = sh.update(9, 1, "a", add, (10,))
    assert rec == ("upd", "a", 11, 9, 1, EPOCH + 1)
    assert sh.update(9, 1, "a", add, (10,)) is None      # the retry
    assert sh.result_of(9, 1) == (EPOCH + 1, 11)
    assert (sh.store["a"], sh.epoch) == (11, EPOCH + 1)
    with pytest.raises(KeyError):
        sh.update(9, 2, "missing", add, (1,))
    assert sh.update(9, 3, "missing", add, (1,), 100, True)[2] == 101


# ---------------------------------------------------------------------------
# (b) a primary/backup pair against a dict oracle
# ---------------------------------------------------------------------------

WINDOW = 6
_keys = st.sampled_from(["a", "b", "c", "d"])
_vals = st.integers(-50, 50)


def _add(old, x):
    return old + x


class ReplicatedPair(RuleBasedStateMachine):
    """Every mutation goes primary -> record -> backup.replay; clients
    retry updates; the primary dies and the backup takes over; a fresh
    backup is installed from a snapshot.  The dedup window is shrunk to
    ``WINDOW`` so eviction is exercised."""

    def __init__(self):
        super().__init__()
        self._saved_window = shard_mod.APPLIED_WINDOW
        shard_mod.APPLIED_WINDOW = WINDOW
        self.ranks = itertools.count(2)
        self.primary = Shard(SID, PRIMARY, 0, 1)
        self.backup = Shard(SID, BACKUP, 0, 1)
        self.oracle: dict = {}
        self.done: list = []        # [(src, op_id, key, arg, result)]
        self.op_ids = itertools.count(1)

    def teardown(self):
        shard_mod.APPLIED_WINDOW = self._saved_window

    def _log(self, rec):
        if rec is not None:
            self.backup.replay(self.primary.repl_epoch, [rec])
        assert self.backup.store == self.primary.store == self.oracle
        assert self.backup.applied == self.primary.applied
        assert self.backup.epoch == self.primary.epoch

    @rule(k=_keys, v=_vals)
    def put(self, k, v):
        self.oracle[k] = v
        self._log(self.primary.put({k: v}))

    @rule(k=_keys)
    def delete(self, k):
        rec = self.primary.delete([k])
        assert (rec is not None) == (k in self.oracle)
        self.oracle.pop(k, None)
        self._log(rec)

    @rule(src=st.integers(0, 2), k=_keys, arg=_vals)
    def update(self, src, k, arg):
        op_id = next(self.op_ids)
        want = self.oracle.get(k, 0) + arg
        rec = self.primary.update(src, op_id, k, _add, (arg,), 0, True)
        assert rec == ("upd", k, want, src, op_id, self.primary.epoch)
        self.oracle[k] = want
        self.done.append((src, op_id, k, arg, want))
        self._log(rec)

    @precondition(lambda self: self.done)
    @rule(data=st.data())
    def retry_a_recent_update(self, data):
        # Only ops still inside the window are guaranteed to dedup.
        src, op_id, k, arg, want = data.draw(
            st.sampled_from(self.done[-WINDOW:]))
        epoch = self.primary.epoch
        assert self.primary.update(src, op_id, k, _add, (arg,), 0,
                                   True) is None
        assert self.primary.epoch == epoch
        for copy in (self.primary, self.backup):
            assert copy.result_of(src, op_id)[1] == want
        self._log(None)

    @rule()
    def primary_dies_backup_takes_over(self):
        old_repl = self.backup.repl_epoch
        me = self.backup.backup
        self.backup.promote(me, next(self.ranks))
        assert self.backup.repl_epoch == old_repl + 1
        stale = self.primary
        self.primary = self.backup
        self.backup = Shard.from_snapshot(
            SID, self.primary.snapshot(), self.primary.backup)
        # the deposed primary's log is fenced off
        with pytest.raises(KvStalePrimary):
            self.primary.replay(stale.repl_epoch, [("put", {"x": 1}, 99)])
        self._log(None)

    @rule()
    def reinstall_the_backup(self):
        hm = HostedMap(nshards=4)
        hm.shards[SID] = self.backup
        self.backup = hm.install(SID, self.primary.snapshot(),
                                 self.primary.backup)
        assert self.backup.role == BACKUP
        self._log(None)

    @invariant()
    def window_is_bounded(self):
        assert len(self.primary.applied) <= WINDOW
        assert len(self.backup.applied) <= WINDOW


ReplicatedPair.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
test_replicated_pair = ReplicatedPair.TestCase


# ---------------------------------------------------------------------------
# (c) what crosses the wire: records and snapshots as stream values
# ---------------------------------------------------------------------------

def _through(obj):
    ep = preencode(obj)
    return ep.decode(), ep


@pytest.mark.parametrize("as_primary", [False, True])
def test_snapshot_codec_from_snapshot_round_trip(as_primary):
    sh = Shard(SID, PRIMARY, ME, None if as_primary else OTHER)
    sh.put({"k": [1, 2, 3], ("t", 1): b"x" * 300, 7: None})
    sh.update(2, 11, "n", _add, (5,), 0, True)
    sh.update(0, 12, "n", _add, (1,))
    sh.repl_epoch = 4
    # kv_install sends the tuple and rebuilds the snapshot from it
    fields, ep = _through(tuple(sh.snapshot(as_primary)))
    snap = ShardSnapshot(*fields)
    assert snap == sh.snapshot(as_primary)
    assert not ep.used_pickle
    there = Shard.from_snapshot(SID, snap, THIRD)
    assert there.store == sh.store
    assert there.applied == sh.applied
    assert list(there.applied) == list(sh.applied)      # eviction order
    if as_primary:
        assert (there.role, there.primary) == (PRIMARY, THIRD)
        assert (there.epoch, there.repl_epoch) == (sh.epoch + 1, 5)
    else:
        assert (there.role, there.primary) == (BACKUP, ME)
        assert (there.epoch, there.repl_epoch) == (sh.epoch, 4)
    assert there.backup == sh.backup


def test_replication_records_round_trip_and_replay():
    primary = Shard(SID, PRIMARY, ME, OTHER)
    records = [
        primary.put({"a": 1, "b": [1, 2]}),
        primary.update(3, 1, "a", _add, (41,)),
        primary.delete(["b", "nope"]),
    ]
    wire, ep = _through(records)
    assert wire == records
    assert not ep.used_pickle
    backup = Shard(SID, BACKUP, ME, OTHER)
    backup.replay(primary.repl_epoch, wire)
    assert backup.store == primary.store == {"a": 42}
    assert backup.applied == primary.applied
    assert backup.epoch == primary.epoch == 3


# ---------------------------------------------------------------------------
# (d) which keys changed, and the client cache that asks
# ---------------------------------------------------------------------------

def test_changed_since_names_keys_once_and_forgets_beyond_the_window(
        monkeypatch):
    monkeypatch.setattr(shard_mod, "CHANGED_WINDOW", 4)
    sh = Shard(SID, PRIMARY, ME, OTHER)
    sh.put({"a": 1, "b": 1})                            # epoch 1
    sh.update(9, 1, "a", _add, (1,))                    # 2
    assert sh.delete(["nope"]) is None                  # no epoch, no entry
    sh.delete(["b", "nope"])                            # 3
    assert sh.changed_since(0) == ["b", "a"]            # newest first, once
    assert sh.changed_since(2) == ["b"]
    assert sh.changed_since(3) == sh.changed_since(7) == []
    sh.put({"c": 1})                                    # 4: 5 keys > 4
    assert sh.changed_since(0) is None                  # epoch 1 forgotten
    assert sh.changed_since(1) == ["c", "b", "a"]
    sh.put(dict.fromkeys("vwxyz", 0))                   # 5: one record > 4
    assert (sh.changed_floor, sh.changed_keys) == (5, 0)
    assert sh.changed_since(4) is None
    assert sh.changed_since(5) == []


def test_changed_log_follows_replay_and_resets_when_history_breaks():
    primary = Shard(SID, PRIMARY, ME, OTHER)
    backup = Shard(SID, BACKUP, ME, OTHER)
    recs = [primary.put({"a": 1, "b": 2}), primary.delete(["a"]),
            primary.update(9, 1, "b", _add, (1,))]
    backup.replay(0, recs)
    assert [backup.changed_since(e) for e in range(4)] == \
        [primary.changed_since(e) for e in range(4)]
    # a gap: the backup never saw epoch 4
    primary.put({"lost": 0})
    backup.replay(0, [primary.put({"c": 3})])
    assert backup.epoch == 5
    assert [backup.changed_since(e) for e in (3, 4, 5)] == [None, None, []]
    # promotion and snapshot installs start a log nobody can look behind
    backup.promote(OTHER, THIRD)
    assert backup.changed_since(5) is None and backup.changed_since(6) == []
    for as_primary in (False, True):
        there = Shard.from_snapshot(SID, primary.snapshot(as_primary), THIRD)
        assert there.changed_since(there.epoch - 1) is None
        assert there.changed_since(there.epoch) == []


def test_shard_cache_rules():
    c = ShardCache()
    assert c.seen == -1
    c.contact(5, None)
    c.fill(5, "a", 1)
    c.fill(5, "b", 2)
    # rule 1: a newer reply drops what it names ...
    c.contact(7, ["a", "zzz"])
    assert (c.seen, c.entries) == (7, {"b": 2})
    # ... an older (or equal) one changes nothing, whatever it names,
    c.contact(6, None)
    c.contact(7, ["b"])
    assert (c.seen, c.entries) == (7, {"b": 2})
    # rule 2: and its values are not current
    c.fill(6, "a", "old")
    assert c.entries == {"b": 2}
    c.fill(7, "a", 3)
    assert c.entries == {"b": 2, "a": 3}
    c.contact(9, None)
    assert (c.seen, c.entries) == (9, {})
    # rule 3
    c.fill(9, "a", 4)
    c.repoint()
    assert (c.seen, c.entries) == (-1, {})


def test_a_reply_to_an_older_route_names_too_little():
    """A client sent one request at seen -1 and a later one at seen 2,
    then repointed (rule 3) before either reply landed.  The first
    reply refills it at epoch 1; the second names only what changed
    after the epoch *its* request carried (2), not the delete at 2 that
    the refill predates — so it must drop everything.  (CachedClients
    found this with held-back replies; a client with one request per
    shard in flight never meets it.)"""
    copy = Shard(SID, PRIMARY, 0, None)
    copy.update(0, 1, "b", _add, (0,), 0, True)         # epoch 1: b = 0
    first = (copy.epoch, None, {"b": copy.store["b"]})  # sent at seen -1
    copy.delete(["b"])                                   # epoch 2
    seen = copy.epoch
    copy.update(0, 2, "a", _add, (0,), 0, True)         # epoch 3: a = 0
    second = (copy.epoch, copy.changed_since(seen), {"a": 0})
    c = ShardCache()
    c.repoint()
    for (epoch, changed, fills), since in ((first, -1), (second, seen)):
        c.contact(epoch, changed, since)
        for k, v in fills.items():
            c.fill(epoch, k, v)
    assert (c.seen, c.entries) == (3, {"a": 0})      # no stale "b"


def test_shard_cache_routes_and_loses():
    c = ShardCache()
    c.route(0, 1)
    c.contact(3)
    c.fill(3, "a", 1)
    c.route(0, 2)                       # same primary: the cache stays
    assert (c.primary, c.backup, c.seen, c.entries) == (0, 2, 3, {"a": 1})
    c.route(2, 2)                       # a turn is rule 3; no self-backup
    assert (c.primary, c.backup, c.seen, c.entries) == (2, None, -1, {})
    c.route(2, 0)
    c.fill(0, "a", 1)
    assert c.lose(1) is False           # not on the route
    assert c.lose(0) and (c.primary, c.backup) == (2, None)
    assert c.entries == {"a": 1}        # a lost backup turns nobody
    assert c.lose(2) is False           # no copy left to turn to
    c.route(2, 0)
    assert c.lose(2, dead={0}) is False     # nor a dead one
    assert c.lose(2) and (c.primary, c.backup, c.entries) == (0, None, {})


def test_shard_cache_is_bounded_oldest_inserted_out(monkeypatch):
    monkeypatch.setattr(shard_mod, "CACHE_LIMIT", 3)
    c = ShardCache()
    for i, k in enumerate("abcab"):
        c.fill(0, k, i)
    assert c.entries == {"a": 3, "b": 4, "c": 2}
    c.fill(0, "d", 9)
    assert list(c.entries) == ["b", "c", "d"]


def test_epochs_are_only_compared_within_one_primarys_reign():
    """A get served while the primary still waits on its backup sees an
    epoch the backup never got; when the backup is then promoted its
    epoch + 1 is that very number."""
    primary = Shard(SID, PRIMARY, 0, 1)
    backup = Shard(SID, BACKUP, 0, 1)
    backup.replay(0, [primary.put({"a": "both"})])
    primary.put({"a": "primary only"})                  # never replayed
    c = ShardCache()
    c.contact(primary.epoch, primary.changed_since(c.seen))
    c.fill(primary.epoch, "a", primary.store["a"])
    backup.promote(1, 2)
    assert backup.epoch == c.seen                       # the collision
    assert backup.changed_since(c.seen) == []           # "nothing changed"
    c.repoint()                                         # rule 3 instead
    c.contact(backup.epoch, backup.changed_since(c.seen))
    assert c.entries == {}


CHANGED, LIMIT = 6, 3
_GONE = object()


class _Client:
    def __init__(self):
        self.cache = ShardCache()
        self.reign = 0      # which primary's reign its route points at


class CachedClients(RuleBasedStateMachine):
    """Two clients read and write one shard through their caches, by the
    three rules and nothing else.  Replication may lag (``pending``),
    replies may be held back and delivered late, the primary may die
    with records unreplicated, and the shard may migrate.  ``history``
    is the serving copy's store at every epoch of the current reign.
    Every copy lives on a rank of its own: a promoted backup's rank is
    never the primary's it replaces, and a dead rank hosts nothing
    again."""

    def __init__(self):
        super().__init__()
        self._saved = (shard_mod.CHANGED_WINDOW, shard_mod.CACHE_LIMIT)
        shard_mod.CHANGED_WINDOW, shard_mod.CACHE_LIMIT = CHANGED, LIMIT
        self.primary = Shard(SID, PRIMARY, 0, 1)
        self.backup = Shard(SID, BACKUP, 0, 1)
        self.ranks = itertools.count(2)     # ranks that host nothing yet
        self.dead: set = set()
        self.pending: list = []         # records the backup has not got
        self.reign = 0
        self.history = {0: {}}
        self.clients = [_Client(), _Client()]
        self.held: list = []            # [(client, reply)]
        self.op_ids = itertools.count(1)

    def teardown(self):
        shard_mod.CHANGED_WINDOW, shard_mod.CACHE_LIMIT = self._saved

    # -- the client as hashmap.py drives it ----------------------------
    def _turn(self, c):
        """Deaths reach the client (``lose``), then a redirect or a
        survey routes it at the primary: the cache sees only ranks, and
        must apply rule 3 at every change of reign by itself."""
        for r in self.dead:
            c.cache.lose(r, self.dead)
        c.cache.route(self.primary.primary, self.primary.backup)
        c.reign = self.reign

    def _reply(self, copy, epoch, seen, fills=()):
        return (self.reign, epoch, seen, copy.changed_since(seen),
                {k: copy.store[k] for k in fills if k in copy.store})

    def _deliver(self, c, reply, now=True):
        if not now:
            self.held.append((c, reply))
            return
        reign, epoch, since, changed, fills = reply
        if reign != c.reign:
            return      # the request died with the route it went down
        c.cache.contact(epoch, changed, since)
        for k, v in fills.items():
            c.cache.fill(epoch, k, v)

    def _mutate(self, c, apply, fills, lag, now):
        self._turn(c)
        seen = c.cache.seen
        rec = apply(self.primary)
        if rec is not None:
            self.history[self.primary.epoch] = dict(self.primary.store)
            self.pending.append(rec)
        if not lag:
            self.catch_up()
        epoch = self.primary.epoch if rec is None else rec[-1]
        self._deliver(c, self._reply(self.primary, epoch, seen, fills), now)

    # -- rules ----------------------------------------------------------
    @rule(i=st.integers(0, 1), ks=st.lists(_keys, min_size=1, max_size=3),
          v=_vals, lag=st.booleans(), now=st.booleans())
    def put(self, i, ks, v, lag, now):
        items = dict.fromkeys(ks, v)
        self._mutate(self.clients[i], lambda sh: sh.put(items), ks, lag, now)

    @rule(i=st.integers(0, 1), k=_keys, lag=st.booleans(),
          now=st.booleans())
    def delete(self, i, k, lag, now):
        self._mutate(self.clients[i], lambda sh: sh.delete([k]), (), lag,
                     now)

    @rule(i=st.integers(0, 1), k=_keys, arg=_vals, lag=st.booleans(),
          now=st.booleans())
    def update(self, i, k, arg, lag, now):
        op_id = next(self.op_ids)
        self._mutate(
            self.clients[i],
            lambda sh: sh.update(i, op_id, k, _add, (arg,), 0, True),
            [k], lag, now)

    @rule(i=st.integers(0, 1), k=_keys, now=st.booleans())
    def get(self, i, k, now):
        """Cached, or a contact that fetches it from the primary."""
        c = self.clients[i]
        self._turn(c)
        if k in c.cache.entries:
            return
        self._deliver(c, self._reply(self.primary, self.primary.epoch,
                                     c.cache.seen, [k]), now)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def deliver_a_held_back_reply(self, data):
        c, reply = self.held.pop(
            data.draw(st.integers(0, len(self.held) - 1)))
        self._deliver(c, reply)

    @rule()
    def catch_up(self):
        self.backup.replay(self.primary.repl_epoch, self.pending)
        self.pending.clear()
        assert self.backup.store == self.primary.store
        assert self.backup.epoch == self.primary.epoch

    @rule(k=_keys)
    def others_write_more_than_the_window(self, k):
        for v in range(CHANGED + 1):
            self.pending.append(self.primary.put({k: v}))
            self.history[self.primary.epoch] = dict(self.primary.store)
        self.catch_up()

    @rule()
    def primary_dies_backup_takes_over(self):
        """Whatever was pending is lost, and with it the epochs clients
        may have seen of it."""
        self.pending.clear()
        self.dead.add(self.primary.primary)
        self.backup.promote(self.primary.backup, next(self.ranks))
        self.primary = self.backup
        self._new_backup()
        self.reign += 1
        self.history = {self.primary.epoch: dict(self.primary.store)}

    @rule(home=st.booleans())
    def migrate(self, home):
        """A clean hand-over: epochs carry on, so even a client that is
        not repointed (the shard came back to the rank it knew) stays
        coherent."""
        self.catch_up()
        to = self.primary.primary if home else next(self.ranks)
        self.primary = Shard.from_snapshot(
            SID, self.primary.snapshot(as_primary=True), to)
        self.history[self.primary.epoch] = dict(self.primary.store)
        self._new_backup()

    @rule()
    def reinstall_the_backup(self):
        self.pending.clear()
        self._new_backup()

    def _new_backup(self):
        self.backup = Shard.from_snapshot(SID, self.primary.snapshot(),
                                          self.primary.backup)

    # -- invariants -------------------------------------------------------
    @invariant()
    def entries_are_the_copys_values_at_seen(self):
        """Coherent at contact: right after a reply is applied ``seen``
        is its epoch, so every entry equals the value the contacted copy
        had — and until the next contact nothing else is promised."""
        for c in self.clients:
            if c.reign == self.reign:
                # (an epoch of another reign has no store here)
                then = self.history.get(c.cache.seen, {})
                assert c.cache.entries.items() <= then.items()

    @invariant()
    def changed_since_misses_no_difference(self):
        for copy in (self.primary, self.backup):
            now = self.history[copy.epoch]
            assert copy.store == now
            for seen, then in self.history.items():
                named = copy.changed_since(seen)
                if named is None or seen > copy.epoch:
                    continue
                differ = {k for k in then.keys() | now.keys()
                          if then.get(k, _GONE) != now.get(k, _GONE)}
                assert differ <= set(named)

    @invariant()
    def logs_and_caches_are_bounded(self):
        for copy in (self.primary, self.backup):
            assert copy.changed_keys == sum(
                len(keys) for _e, keys in copy.changed) <= CHANGED
            assert all(e > copy.changed_floor for e, _k in copy.changed)
        for c in self.clients:
            assert len(c.cache.entries) <= LIMIT


CachedClients.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
test_cached_clients = CachedClients.TestCase
