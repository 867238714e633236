"""Property tests: DistHashMap vs a plain-dict model.

The model check executes a random op sequence in a barrier-stepped
total order (op ``i`` runs on rank ``i % n``) while *every* rank
maintains the same plain-dict model; after the sequence each rank
verifies the full keyspace through ``multi_get`` (after a ``refresh``
fence — reads between fences may legitimately be stale, so only fenced
reads are asserted against the model).
"""

from hypothesis import given, settings, strategies as st

import repro
from repro.containers import DistHashMap
from repro.core import collectives
from tests.conftest import run_spmd

KEYS = [f"k{i}" for i in range(8)]

_op = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS),
              st.integers(-100, 100)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()),
    st.tuples(st.just("update"), st.sampled_from(KEYS),
              st.integers(1, 9)),
    st.tuples(st.just("multi_put"),
              st.lists(st.tuples(st.sampled_from(KEYS),
                                 st.integers(-100, 100)),
                       min_size=1, max_size=4),
              st.none()),
)


@settings(max_examples=12, deadline=None)
@given(ops=st.lists(_op, max_size=12))
def test_matches_dict_model(ops):
    def body():
        me = repro.myrank()
        n = repro.ranks()
        m = DistHashMap(cache=True)
        model: dict = {}
        for i, (kind, arg, extra) in enumerate(ops):
            if i % n == me:  # this rank executes the op...
                if kind == "put":
                    m.put(arg, extra)
                elif kind == "delete":
                    m.delete(arg)
                elif kind == "update":
                    m.update(arg, "add", extra, default=0)
                elif kind == "multi_put":
                    m.multi_put(arg)
            # ...every rank steps the model identically.
            if kind == "put":
                model[arg] = extra
            elif kind == "delete":
                model.pop(arg, None)
            elif kind == "update":
                model[arg] = model.get(arg, 0) + extra
            elif kind == "multi_put":
                model.update(dict(arg))
            collectives.barrier()  # total order between ops
        m.refresh()  # fence: cached reads below must be current
        got = m.multi_get(KEYS, default=None)
        want = [model.get(k) for k in KEYS]
        assert got == want, (got, want)
        for k in KEYS:  # point gets agree too (cache path)
            assert m.get(k, default=None) == model.get(k)
        size = m.size()
        assert size == len(model), (size, model)
        return True

    assert all(run_spmd(body, ranks=3))
