"""Property test: arbitrary compositions of NdArray views agree with a
point-by-point reference model.

The reference model is a dict {point: value} plus a pure-Python
transform of the logical domain; after any chain of constrict /
translate / permute / slice operations, every element read through the
view must equal the model's value for the corresponding original point,
and local_view() must lay those values out in row-major domain order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.arrays import NdArray, Point, RectDomain, ndarray
from tests.conftest import run_spmd


class RefView:
    """A pure-Python mirror of the view algebra: maps logical points of
    the current view back to points of the base array."""

    def __init__(self, dom: RectDomain):
        self.domain = dom
        self.back = lambda pt: pt  # view point -> base point

    def constrict(self, sub: RectDomain) -> "RefView":
        out = RefView(self.domain.intersect(sub))
        prev = self.back
        out.back = prev
        return out

    def translate(self, off: Point) -> "RefView":
        out = RefView(self.domain.translate(off))
        prev = self.back
        out.back = lambda pt: prev(pt - off)
        return out

    def permute(self, perm) -> "RefView":
        out = RefView(self.domain.permute(perm))
        prev = self.back
        inv = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
        out.back = lambda pt: prev(pt.permute(inv))
        return out

    def slice(self, axis: int, coord: int) -> "RefView":
        out = RefView(self.domain.slice(axis, coord))
        prev = self.back
        out.back = lambda pt: prev(
            Point(*(list(pt)[:axis] + [coord] + list(pt)[axis:]))
        )
        return out


def op_strategy():
    return st.lists(
        st.one_of(
            st.tuples(st.just("constrict"),
                      st.integers(-2, 2), st.integers(3, 9),
                      st.integers(1, 2)),
            st.tuples(st.just("translate"),
                      st.integers(-4, 4), st.integers(-4, 4)),
            st.tuples(st.just("permute"),
                      st.sampled_from([(0, 1), (1, 0)])),
        ),
        min_size=0, max_size=4,
    )


@settings(max_examples=25, deadline=None)
@given(ops=op_strategy())
def test_view_chain_matches_reference(ops):
    def body():
        base_dom = RectDomain((0, 0), (6, 7))
        A = ndarray(np.int64, base_dom)
        values = {}
        for k, p in enumerate(base_dom):
            A[p] = k * 13 + 1
            values[tuple(p)] = k * 13 + 1

        view: NdArray = A
        ref = RefView(base_dom)
        for op in ops:
            if op[0] == "constrict":
                _name, lo, hi, stridev = op
                sub = RectDomain(
                    Point(lo, lo), Point(hi, hi),
                    Point(stridev, stridev),
                )
                view = view.constrict(sub)
                ref = ref.constrict(sub)
            elif op[0] == "translate":
                off = Point(op[1], op[2])
                view = view.translate(off)
                ref = ref.translate(off)
            elif op[0] == "permute":
                view = view.permute(op[1])
                ref = ref.permute(op[1])
            assert view.domain == ref.domain
            if view.domain.is_empty:
                return True

        # element-level agreement
        for p in view.domain:
            base_pt = ref.back(p)
            assert view[p] == values[tuple(base_pt)], (p, ops)
        # local_view agreement (row-major over the domain)
        lv = view.local_view()
        flat = lv.reshape(-1)
        for i, p in enumerate(view.domain):
            assert flat[i] == values[tuple(ref.back(p))]
        # pack/unpack round trip over the full view domain
        packed = view.to_numpy()
        assert packed.shape == view.domain.shape
        return True

    assert all(run_spmd(body, ranks=1))


def _apply(view, ref, ops):
    for op in ops:
        if op[0] == "constrict":
            sub = RectDomain(Point(op[1], op[1]), Point(op[2], op[2]),
                             Point(op[3], op[3]))
            view, ref = view.constrict(sub), ref.constrict(sub)
        elif op[0] == "translate":
            off = Point(op[1], op[2])
            view, ref = view.translate(off), ref.translate(off)
        else:
            view, ref = view.permute(op[1]), ref.permute(op[1])
    return view, ref


@settings(max_examples=10, deadline=None)
@given(
    axis=st.integers(0, 1),
    rowcol=st.integers(1, 4),
    ops=op_strategy(),
)
def test_slice_after_chain_matches_reference(axis, rowcol, ops):
    def body():
        base_dom = RectDomain((0, 0), (6, 6))
        A = ndarray(np.int64, base_dom)
        values = {}
        for k, p in enumerate(base_dom):
            A[p] = k + 100
            values[tuple(p)] = k + 100

        view, ref = _apply(A, RefView(base_dom), ops)
        dom = view.domain
        if dom.is_empty:
            return True
        coords = [c for c in
                  range(dom.lb[axis], dom.ub[axis], dom.stride[axis])]
        coord = coords[min(rowcol, len(coords) - 1)]
        s_view = view.slice(axis, coord)
        s_ref = ref.slice(axis, coord)
        assert s_view.domain == s_ref.domain
        for p in s_view.domain:
            assert s_view[p] == values[tuple(s_ref.back(p))]
        return True

    assert all(run_spmd(body, ranks=1))


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
@settings(max_examples=15, deadline=None)
@given(
    dst_ops=op_strategy(),
    src_ops=op_strategy(),
    slice_axis=st.sampled_from([None, 0, 1]),
    placement=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 2), (1, 1)]),
)
def test_copy_between_views_is_one_sided_and_exact(
        conduit, dst_ops, src_ops, slice_axis, placement):
    """``A'.copy(B')`` for strided / sliced / permuted / shifted views,
    wherever the two arrays live, writes exactly what NumPy indexing
    says it should — and rank 0, the initiator, sends no active message
    doing it (the owners execute nothing)."""
    dst_rank, src_rank = placement

    def body():
        if repro.myrank() == 0:
            dom = RectDomain((0, 0), (6, 7))
            A = ndarray(np.int64, dom, rank=dst_rank)
            B = ndarray(np.int64, dom, rank=src_rank)
            a_np = np.arange(42).reshape(6, 7)
            b_np = -1 - a_np
            A.from_numpy(a_np)
            B.from_numpy(b_np)
            a_view, a_ref = _apply(A, RefView(dom), dst_ops)
            b_view, b_ref = _apply(B, RefView(dom), src_ops)
            if slice_axis is not None and not (
                    a_view.domain.is_empty or b_view.domain.is_empty):
                ca = a_view.domain.lb[slice_axis]
                cb = b_view.domain.lb[slice_axis]
                a_view, a_ref = (a_view.slice(slice_axis, ca),
                                 a_ref.slice(slice_axis, ca))
                b_view, b_ref = (b_view.slice(slice_axis, cb),
                                 b_ref.slice(slice_axis, cb))
            want = a_np.copy()
            for p in a_view.domain.intersect(b_view.domain):
                want[tuple(a_ref.back(p))] = b_np[tuple(b_ref.back(p))]
            stats = repro.current_world().ranks[0].stats
            before = stats.snapshot()["ams_sent"]
            a_view.copy(b_view)
            assert stats.snapshot()["ams_sent"] == before
            assert np.array_equal(A.to_numpy(), want)
            assert np.array_equal(B.to_numpy(), b_np)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3, conduit=conduit))
