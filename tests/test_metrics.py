import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plbounds import io
from plbounds.metrics import (
    DIRECTIONS,
    AlarmLimits,
    PerDirection,
    bound_gap,
    failure_rate,
    false_alarm_rate,
    integrity_diagram,
    summarize,
)

import oracles


def records(*pairs) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 3) bounds and errors of records given as (pl, err) pairs,
    each with the same bound and error in every direction."""
    values = np.array(pairs, dtype=float).reshape(-1, 2)
    return np.repeat(values[:, :1], 3, axis=1), np.repeat(values[:, 1:], 3, axis=1)


UNIT_LIMITS = AlarmLimits(1.0, 1.0, 1.0)


def test_per_direction_access():
    p = PerDirection(1, 2, 3)
    assert (p.get("lateral"), p.get("longitudinal"), p.get("vertical")) == (1, 2, 3)
    assert p.to_dict() == {"lateral": 1, "longitudinal": 2, "vertical": 3}


def test_alarm_limit_defaults_and_validation():
    limits = AlarmLimits()
    assert (limits.lateral, limits.longitudinal, limits.vertical) == (0.85, 1.50, 1.47)
    with pytest.raises(ValueError):
        AlarmLimits(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AlarmLimits(1.0, 1.0, -0.1)


def test_record_validation():
    # every metric checks its columns: (T, 3) each, finite errors and finite
    # non-negative bounds
    pl, err = records((1.0, 0.5))
    assert np.array_equal(err, [[0.5, 0.5, 0.5]])
    bad = (
        (pl, np.array([[1.0, 2.0]])),
        (pl, np.array([[1.0, np.nan, 0.0]])),
        (np.array([[1.0, -0.1, 1.0]]), err),
        (np.array([[1.0, np.inf, 1.0]]), err),
        (np.ones(3), np.ones(3)),
    )
    metrics = (
        failure_rate,
        lambda p, e: bound_gap(p, e, UNIT_LIMITS),
        lambda p, e: false_alarm_rate(p, e, UNIT_LIMITS),
        lambda p, e: summarize(p, e, UNIT_LIMITS),
        lambda p, e: integrity_diagram(p, e, UNIT_LIMITS),
    )
    for metric in metrics:
        for columns in bad:
            with pytest.raises(ValueError):
                metric(*columns)


# ---------------------------------------------------------------------------
# scalar metrics


def test_failure_rate_counts_strictly():
    fr = failure_rate(*records((1.0, 1.5), (1.0, 1.0), (1.0, 0.5), (0.0, 0.0)))
    # only the first record has pl strictly below |err|; exact ties are fine
    for d in DIRECTIONS:
        assert fr.get(d) == 0.25


def test_failure_rate_uses_error_magnitude():
    fr = failure_rate(np.ones((1, 3)), np.array([[-1.5, 0.2, -0.2]]))
    assert fr.lateral == 1.0
    assert fr.longitudinal == 0.0 and fr.vertical == 0.0


def test_false_alarm_rate_hand_case():
    # 10 records against a unit alarm limit:
    #   3 true alarms     (pl 1.5 > 1, err 1.2 > 1)
    #   1 missed alarm    (pl 0.9 <= 1, err 1.1 > 1)
    #   2 false alarms    (pl 1.5 > 1, err 0.5 <= 1)
    #   4 nominal         (pl 0.8, err 0.5)
    # so T=10, N_PE=4, N_FA=2, N_TA=3 and the weighted rate is
    # 2*(10-4) / (2*(10-4) + 3*4) = 12/24
    table = records(*[(1.5, 1.2)] * 3, (0.9, 1.1), *[(1.5, 0.5)] * 2, *[(0.8, 0.5)] * 4)
    far, flags = false_alarm_rate(*table, UNIT_LIMITS)
    for d in DIRECTIONS:
        assert far.get(d) == 0.5
        assert flags.get(d) is False


def test_false_alarm_rate_ties_do_not_alarm():
    # pl exactly at the limit is not an alarm, err exactly at the limit is
    # not a position error
    far, flags = false_alarm_rate(*records(*[(1.0, 1.0)] * 5), UNIT_LIMITS)
    for d in DIRECTIONS:
        assert far.get(d) == 0.0
        assert flags.get(d) is True  # no alarms and no position errors at all


def test_false_alarm_rate_degenerate_all_position_errors_alarmed():
    # every record is a true alarm: numerator 0 but denominator nonzero,
    # so the rate is a genuine 0 and the flag stays down
    far, flags = false_alarm_rate(*records(*[(1.5, 1.2)] * 4), UNIT_LIMITS)
    for d in DIRECTIONS:
        assert far.get(d) == 0.0
        assert flags.get(d) is False


def test_bound_gap_hand_case():
    table = records((1.0, 0.5), (0.9, 0.2), (1.5, 0.1), (0.3, 0.8))
    # the alarm (pl 1.5) and the failure (pl 0.3 < err) are excluded,
    # leaving gaps 0.5 and 0.7
    gap = bound_gap(*table, UNIT_LIMITS)
    for d in DIRECTIONS:
        assert abs(gap.get(d) - 0.6) <= 1e-12


def test_bound_gap_without_nominal_records():
    table = records(*[(1.5, 0.1)] * 3)  # always alarming
    gap = bound_gap(*table, UNIT_LIMITS)
    assert gap.lateral is None and gap.longitudinal is None and gap.vertical is None


def test_metrics_reject_empty_lists():
    for fn in (failure_rate, lambda p, e: bound_gap(p, e, UNIT_LIMITS), lambda p, e: false_alarm_rate(p, e, UNIT_LIMITS)):
        with pytest.raises(ValueError):
            fn(*records())


def test_summarize_roundtrip():
    report = summarize(*records((0.8, 0.5), (1.5, 1.2), (0.9, 1.1)), UNIT_LIMITS)
    assert report.n_records == 3
    d = report.to_dict()
    assert set(d) == {
        "n_records",
        "bound_gap",
        "failure_rate",
        "false_alarm_rate",
        "far_degenerate",
        "no_nominal_records",
        "alarm_limits",
    }
    assert d["failure_rate"]["lateral"] == pytest.approx(1 / 3)
    assert d["alarm_limits"] == {"lateral": 1.0, "longitudinal": 1.0, "vertical": 1.0}
    assert d["no_nominal_records"] == {k: False for k in DIRECTIONS}


def test_summarize_empty():
    report = summarize(*records(), UNIT_LIMITS)
    assert report.n_records == 0
    assert report.bound_gap.lateral is None
    assert report.failure_rate.vertical == 0.0
    assert report.far_degenerate.longitudinal is True
    assert report.to_dict()["no_nominal_records"]["lateral"] is True


# ---------------------------------------------------------------------------
# results table


def test_results_table_columns_roundtrip(tmp_path):
    # `plbounds metrics` and `diagram` read results.csv's columns straight
    # into the (T, 3) bounds and errors
    table = np.array(
        [
            [0.0, 1.0, 2.0, 3.0, 0.1, -0.2, 0.3],
            [0.5, 1.5, 2.5, 3.5, -0.4, 0.5, -0.6],
        ]
    )
    io.write_results_csv(table, tmp_path / "results.csv")
    back = io.read_results_csv(tmp_path / "results.csv")
    assert back.tobytes() == table.tobytes()
    pl, err = back[:, 1:4], back[:, 4:7]
    assert pl[0, 1] == 2.0 and np.array_equal(err[1], [-0.4, 0.5, -0.6])
    want = summarize(table[:, 1:4].copy(), table[:, 4:7].copy(), UNIT_LIMITS).to_dict()
    assert summarize(pl, err, UNIT_LIMITS).to_dict() == want
    assert failure_rate(pl, err).longitudinal == 0.0


def test_results_table_columns_validation(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("t,pl_lat,pl_lon,pl_vert,err_x,err_y,err_z\n" + "0.0,1.0,1.0,1.0,0.1,0.1\n" * 3)
    with pytest.raises(ValueError, match="expected 7 fields per row"):
        io.read_results_csv(path)
    with pytest.raises(ValueError):
        summarize(np.zeros((3, 3)), np.zeros((3, 2)), UNIT_LIMITS)
    with pytest.raises(ValueError):
        summarize(np.zeros(7), np.zeros(7), UNIT_LIMITS)


# ---------------------------------------------------------------------------
# integrity diagram


def test_diagram_bin_placement():
    diagram = integrity_diagram(*records((0.7, 0.3)), UNIT_LIMITS, bins=4)
    dd = diagram.directions["lateral"]
    assert np.allclose(dd.edges, np.linspace(0.0, 2.0, 5))
    assert dd.counts[0, 1] == 1 and dd.counts.sum() == 1
    assert dd.nominal == 1


def test_diagram_overflow_bin():
    diagram = integrity_diagram(*records((2.5, 2.5)), UNIT_LIMITS, bins=4)
    dd = diagram.directions["vertical"]
    assert dd.counts[4, 4] == 1
    assert dd.alarm == 1  # pl beyond the limit, bound not broken


def test_diagram_regions_by_construction():
    table = records(
        (0.8, 0.5),  # nominal
        (1.5, 0.5),  # alarm
        (0.4, 0.6),  # misleading: bound broken, error tolerable
        (0.9, 1.2),  # hazardous: bound broken, error past the limit, no alarm
        (1.1, 1.3),  # misleading: bound broken but the alarm fired
    )
    dd = integrity_diagram(*table, UNIT_LIMITS, bins=8).directions["longitudinal"]
    assert (dd.nominal, dd.alarm, dd.misleading, dd.hazardous) == (1, 1, 2, 1)


def test_diagram_partitions_random_records():
    rng = np.random.default_rng(17)
    rows = [(rng.uniform(0.0, 2.2, size=3), rng.uniform(-2.2, 2.2, size=3)) for _ in range(15000)]
    pl, err = (np.array(column) for column in zip(*rows))
    diagram = integrity_diagram(pl, err, AlarmLimits(), bins=10)
    fr = failure_rate(pl, err)
    for name in DIRECTIONS:
        dd = diagram.directions[name]
        assert dd.nominal + dd.alarm + dd.misleading + dd.hazardous == len(rows)
        assert dd.counts.sum() == len(rows)
        assert dd.misleading + dd.hazardous == round(fr.get(name) * len(rows))


@settings(max_examples=200, deadline=None)
@given(
    limits=st.tuples(*(st.floats(1e-300, 1e300) for _ in DIRECTIONS)),
    bins=st.integers(1, 500),
)
@example(limits=(0.85, 1.5, 1.47), bins=40)
def test_diagram_edges_have_the_bits_of_linspace(limits, bins):
    diagram = integrity_diagram(*records((0.1, 0.2)), AlarmLimits(*limits), bins=bins)
    edges = np.stack([diagram.directions[name].edges for name in DIRECTIONS])
    want = np.linspace(0.0, 2.0 * np.array(limits), bins + 1, axis=1)
    assert edges.tobytes() == np.ascontiguousarray(want).tobytes()


def test_diagram_empty_and_validation():
    diagram = integrity_diagram(*records(), UNIT_LIMITS, bins=3)
    assert diagram.n_records == 0
    assert diagram.directions["lateral"].counts.sum() == 0
    with pytest.raises(ValueError):
        integrity_diagram(*records(), UNIT_LIMITS, bins=0)


def test_diagram_to_dict_is_json_ready():
    import json

    d = integrity_diagram(*records((0.7, 0.3)), UNIT_LIMITS, bins=2).to_dict()
    json.dumps(d)
    assert d["directions"]["lateral"]["regions"]["nominal"] == 1


# ---------------------------------------------------------------------------
# the columns against one record at a time

_LIMITS = (AlarmLimits(), UNIT_LIMITS, AlarmLimits(0.3, 2.0, 0.75))


@st.composite
def _tables(draw):
    """Limits, a bin count and (T, 3) bounds and signed errors.  Up to 12
    rows sit on the ties and edges the metrics must count exactly: pl ==
    |err|, pl == limit, |err| == limit, values on a bin edge and past 2 *
    limit.  Up to 300 more are uniform over [0, 3 * limit], so that sums
    over many records show their order; the rows are then shuffled."""
    limits = draw(st.sampled_from(_LIMITS))
    bins = draw(st.sampled_from([1, 3, 8, 40]))
    limit = np.array([limits.get(name) for name in DIRECTIONS])

    def value(d):
        return draw(
            st.one_of(
                st.sampled_from([0.0, limit[d], 2.0 * limit[d]]),
                st.integers(0, bins + 3).map(lambda k: k * (2.0 * limit[d] / bins)),
                st.floats(0.0, 5.0 * limit[d]),
            )
        )

    pl = [[value(d) for d in range(3)] for _ in range(draw(st.integers(0, 12)))]
    err = [[draw(st.sampled_from([1.0, -1.0])) * draw(st.one_of(st.just(p), st.just(value(d)))) for d, p in enumerate(row)] for row in pl]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = draw(st.integers(0, 300))
    pl = np.concatenate((np.array(pl).reshape(-1, 3), rng.uniform(0.0, 3.0 * limit, (bulk, 3))))
    err = np.concatenate((np.array(err).reshape(-1, 3), rng.uniform(-3.0 * limit, 3.0 * limit, (bulk, 3))))
    order = rng.permutation(len(pl))
    return limits, bins, pl[order], err[order]


@settings(max_examples=120, deadline=None)
@given(case=_tables())
@example(case=(UNIT_LIMITS, 4, np.empty((0, 3)), np.empty((0, 3))))  # no records
@example(  # no nominal record laterally (always alarming), a tie on every other axis
    case=(UNIT_LIMITS, 4, np.array([[1.5, 1.0, 0.5], [2.0, 0.5, 2.5]]), np.array([[0.1, -1.0, 0.5], [-0.5, 0.5, 3.0]]))
)
def test_columns_match_the_record_metrics_exactly(case):
    limits, bins, pl, err = case
    kept = oracles.records(pl, err)
    assert summarize(pl, err, limits).to_dict() == oracles.summarize(kept, limits).to_dict()
    assert integrity_diagram(pl, err, limits, bins).to_dict() == oracles.integrity_diagram(kept, limits, bins).to_dict()
