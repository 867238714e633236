"""The benchmark's arithmetic: tail rule, self times, failure
accounting, verdicts."""

import pytest

import compare
import metrics as M


# -- the tail-percentile rule: >= 10 samples beyond ---------------------------
def test_tail_needs_more_than_ten_samples():
    assert M.tail_percentile(range(10)) is None
    assert M.tail_percentile([]) is None


def test_tail_has_exactly_ten_samples_beyond():
    xs = list(range(1000))
    pct, value = M.tail_percentile(xs)
    assert pct == pytest.approx(99.0)
    assert value == 989
    assert sum(1 for x in xs if x > value) == M.TAIL_MIN_BEYOND


def test_tail_percentile_grows_with_the_sample():
    small = M.tail_percentile(range(100))[0]
    large = M.tail_percentile(range(100000))[0]
    assert small == pytest.approx(90.0)
    assert large == pytest.approx(99.99)


def test_tail_of_eleven_samples_is_the_smallest():
    assert M.tail_percentile([5, 3, 9] + [10] * 8) == (
        pytest.approx(100 / 11), 3)


# -- self-time subtraction ----------------------------------------------------
def test_rung_self_subtracts_every_rung_below():
    assert M.rung_self(100.0, 30.0, 20.0) == (50.0, False)


def test_rung_self_flags_negative_beyond_noise_only():
    assert M.rung_self(10.0, 12.0, noise=5.0) == (-2.0, False)
    assert M.rung_self(10.0, 30.0, noise=5.0) == (-20.0, True)


def test_span_self_time_is_duration_minus_children():
    spans = [("op", 0.0, 10.0, -1, 0),
             ("a", 1.0, 4.0, 0, 0),
             ("b", 5.0, 9.0, 0, 0),
             ("inner", 2.0, 3.0, 1, 0)]
    selfs = M.span_self_times(spans)
    assert selfs[0] == pytest.approx(3.0)    # 10 - 3 - 4
    assert selfs[1] == pytest.approx(2.0)    # 3 - 1
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(1.0)


def test_span_self_time_counts_overlapping_children_once():
    spans = [("op", 0.0, 10.0, -1, 0),
             ("a", 1.0, 6.0, 0, 0),
             ("b", 4.0, 8.0, 0, 0),      # overlaps a
             ("c", 9.0, 12.0, 0, 0)]     # sticks out of the parent
    assert M.span_self_times(spans)[0] == pytest.approx(10 - 7 - 1)


# -- failed_share accounting --------------------------------------------------
def test_clean_run_has_no_failures():
    acct = M.account_episodes([("ok", 1000, 0)] * 7)
    assert acct == {"attempted": 7000, "failed": 0, "failed_share": 0.0,
                    "dead_episodes": 0}


def test_ops_that_raised_count_against_attempted():
    acct = M.account_episodes([("ok", 1000, 5), ("ok", 1000, 0)])
    assert acct["failed"] == 5
    assert acct["failed_share"] == pytest.approx(5 / 2000)


@pytest.mark.parametrize("status", ["raised", "crashed", "hung"])
def test_dead_episode_is_charged_the_median_of_the_survivors(status):
    acct = M.account_episodes(
        [("ok", 900, 0), ("ok", 1000, 0), ("ok", 1300, 0), (status, 0, 0)])
    assert acct["dead_episodes"] == 1
    assert acct["attempted"] == 3200 + 1000
    assert acct["failed"] == 1000
    assert acct["failed_share"] == pytest.approx(1000 / 4200)


def test_all_episodes_dead_is_a_share_of_one():
    acct = M.account_episodes([("hung", 0, 0), ("crashed", 0, 0)])
    assert acct["failed_share"] == 1.0
    assert acct["attempted"] >= 1


# -- quartiles and verdicts ---------------------------------------------------
def test_spread_is_interquartile_distance_over_median():
    import statistics
    vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q = statistics.quantiles(vals, n=4)
    assert M.spread(vals) == pytest.approx((q[2] - q[0])
                                           / statistics.median(vals))


def test_better_quartile_is_on_the_better_side_of_the_median():
    slices = [100.0] * 30 + [60.0] * 25 + [55.0] * 25   # mostly disturbed
    assert M.better_quartile(slices, "higher") == 100.0
    assert M.better_quartile([1 / x for x in slices], "lower") == \
        pytest.approx(1 / 100.0)
    assert M.better_quartile([7.0], "lower") == 7.0


# -- slices at the reference speed --------------------------------------------
def test_a_slice_is_scaled_by_the_reference_loop_readings_around_it():
    import workloads as W
    ref = W.REFERENCE_LOOP_S
    # edges 0.1 s apart, 10 ops and 0.05 s of CPU per slice, the
    # reference loop (1 ms of wall, 1 ms of CPU, at each edge) twice as
    # slow as its reference throughout -- but for one wild reading
    loops = [2 * ref, 2 * ref, 9 * ref, 2 * ref]
    marks = [(n * 0.1, n * 0.051, n * 10, loop,
              n * 0.1 + 0.001, n * 0.051 + 0.001)
             for n, loop in enumerate(loops)]
    run = {"marks": marks, "lat": [0.004] * 30,
           "lat_end": [0.01 * k for k in range(1, 31)]}
    slices = W._slices(run)
    assert len(slices) == 3
    for dur, ops, cpu, p50, speed in slices:
        assert dur == pytest.approx(0.099)     # the loop is not timed
        assert cpu == pytest.approx(0.050)     # nor charged
        assert (ops, p50) == (10, 0.004)
        assert speed == pytest.approx(2.0)     # a median: 9x is ignored
    client = {"active": True, "slices": slices}
    server = {"active": False, "cpu_s": 0.099, "t_begin": 0.0,
              "t_end": 0.99, "slices": []}
    ep = W._episode_slices([client, server])
    assert ep["speed"] == pytest.approx([2.0] * 3)
    assert ep["ops_per_s"] == pytest.approx([2 * 10 / 0.099] * 3)
    assert ep["op_p50_us"] == pytest.approx([2000.0] * 3)
    # the server's 0.1 CPU-seconds per second, over the slice, count too
    assert ep["cpu_s_per_kop"] == pytest.approx(
        [(0.050 + 0.1 * 0.099) / 2 / 0.010] * 3)


def _side(samples):
    import statistics
    q1, _, q3 = M.quartiles(samples)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": samples}


def test_verdicts():
    a = _side([100, 101, 99, 100, 102, 98, 100])
    assert compare.verdict(a, _side([100, 102, 99, 101, 103, 98, 100]),
                           "lower", 0.1)[0] == "within-bound"
    assert compare.verdict(a, _side([120, 99, 121, 122, 119, 120, 121]),
                           "lower", 0.1)[0] == "worse"
    assert compare.verdict(a, _side([120, 99, 121, 122, 119, 120, 121]),
                           "higher", 0.1)[0] == "better"
    # a spread wider than the bound resolves nothing...
    noisy = _side([80, 125, 95, 130, 70, 100, 110])
    assert compare.verdict(a, noisy, "lower", 0.1)[0] == "unresolved"
    # ...unless every sample of one side beats every sample of the other
    apart = _side([60, 75, 50, 70, 65, 55, 80])
    verdict, change = compare.verdict(a, apart, "lower", 0.1)
    assert verdict == "better" and change < 0
