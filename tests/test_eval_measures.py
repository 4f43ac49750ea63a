"""Multi-ground-truth match rates and the recombination edit DP."""

import math
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import count_calls, make_piece
from pianofinger import _tables
from pianofinger.errors import LengthMismatch
from pianofinger.eval_measures import (
    DEFAULT_COSTS,
    RecombinationConfig,
    format_report_table,
    format_report_text,
    hand_reports,
    match_rate_report,
    match_rates,
    recombination_match_rate,
    recombination_match_rates,
    summarize,
)

INF = math.inf


def test_simple_rates():
    gts = [[1, 2], [2, 1]]
    assert match_rates("m_gen", [([1, 1], gts)])[0] == 0.5
    assert match_rates("m_high", [([1, 1], gts)])[0] == 0.5
    assert match_rates("m_soft", [([1, 1], gts)])[0] == 1.0
    assert match_rates("m_soft", [([3, 3], gts)])[0] == 0.0


def test_identity_rates():
    gt = [1, 2, 3, 4]
    for measure in ("m_gen", "m_high", "m_soft"):
        assert match_rates(measure, [(gt, [gt])])[0] == 1.0
    m_rec, e_rec, path = recombination_match_rate(gt, [gt])
    assert (m_rec, e_rec, path) == (1.0, 0.0, (0, 0, 0, 0))


def test_recombination_worked_example():
    gts = [[1, 2, 3], [2, 1, 3]]
    m_rec, e_rec, path = recombination_match_rate([1, 1, 3], gts)
    assert e_rec == 1.0
    assert m_rec == pytest.approx(2.0 / 3.0)
    assert path in ((0, 0, 0), (1, 1, 1))
    # lexicographically smallest optimal path
    cost, oracle_path = reference.brute_force_recombination([1, 1, 3], gts, DEFAULT_COSTS)
    assert path == oracle_path


def test_single_ground_truth_reduces_to_match_rate():
    gt = [1, 2, 3, 4, 5]
    est = [1, 2, 5, 4, 1]
    m_rec, e_rec, path = recombination_match_rate(est, [gt])
    assert m_rec == match_rates("m_gen", [(est, [gt])])[0]
    assert path == (0,) * 5


def test_matches_brute_force(rng):
    cost_choices = [0.0, 0.5, 1.0, 2.0, INF]
    for _ in range(60):
        n = int(rng.integers(1, 8))
        n_g = int(rng.integers(1, 4))
        gts = [[int(d) for d in rng.integers(1, 4, size=n)] for _ in range(n_g)]
        est = [int(d) for d in rng.integers(1, 4, size=n)]
        config = RecombinationConfig(
            c_rec=float(rng.choice(cost_choices)),
            c_rec_prime=float(rng.choice(cost_choices)),
            c_sub=float(rng.choice([0.5, 1.0, 2.0])),
        )
        m_rec, e_rec, path = recombination_match_rate(est, gts, config)
        cost, oracle_path = reference.brute_force_recombination(est, gts, config)
        assert e_rec == cost
        assert path == oracle_path
        assert m_rec == (n - e_rec) / n


def test_measure_ordering(rng):
    for _ in range(300):
        n = int(rng.integers(1, 12))
        n_g = int(rng.integers(1, 5))
        gts = [[int(d) for d in rng.integers(1, 6, size=n)] for _ in range(n_g)]
        est = [int(d) for d in rng.integers(1, 6, size=n)]
        report = match_rate_report(est, gts)
        assert report.m_gen <= report.m_high + 1e-12
        assert report.m_high <= report.m_rec + 1e-12
        assert report.m_rec <= report.m_soft + 1e-12
        assert 0.0 <= report.m_gen and report.m_soft <= 1.0


def test_infinite_switch_cost_recovers_highest(rng):
    config = RecombinationConfig(c_rec=INF, c_rec_prime=INF)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        n_g = int(rng.integers(1, 4))
        gts = [[int(d) for d in rng.integers(1, 5, size=n)] for _ in range(n_g)]
        est = [int(d) for d in rng.integers(1, 5, size=n)]
        m_rec, _, _ = recombination_match_rate(est, gts, config)
        assert m_rec == match_rates("m_high", [(est, gts)])[0]


def test_free_switching_bounded_by_soft(rng):
    config = RecombinationConfig(c_rec=0.0, c_rec_prime=INF)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        gts = [[int(d) for d in rng.integers(1, 5, size=n)] for _ in range(3)]
        est = [int(d) for d in rng.integers(1, 5, size=n)]
        default_m, _, _ = recombination_match_rate(est, gts)
        free_m, _, _ = recombination_match_rate(est, gts, config)
        assert default_m - 1e-12 <= free_m <= match_rates("m_soft", [(est, gts)])[0] + 1e-12


def test_permutation_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(1, 8))
        gts = [[int(d) for d in rng.integers(1, 5, size=n)] for _ in range(3)]
        est = [int(d) for d in rng.integers(1, 5, size=n)]
        base = match_rate_report(est, gts)
        perm = [int(i) for i in rng.permutation(3)]
        shuffled = match_rate_report(est, [gts[i] for i in perm])
        for measure in ("m_gen", "m_high", "m_soft", "m_rec"):
            assert getattr(base, measure) == getattr(shuffled, measure)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        match_rates("m_gen", [([1, 2], [[1]])])
    with pytest.raises(LengthMismatch):
        recombination_match_rate([1], [])
    with pytest.raises(LengthMismatch):
        match_rates("m_soft", [([], [[]])])


def test_infinity_is_a_sentinel():
    # an unreachable configuration yields an exactly infinite cost
    config = RecombinationConfig(c_rec=INF, c_rec_prime=INF, c_sub=INF)
    m_rec, e_rec, _ = recombination_match_rate([9, 9], [[1, 2], [2, 1]], config)
    assert e_rec == INF and m_rec == -INF


@pytest.mark.parametrize("name", ["c_rec", "c_rec_prime", "c_sub"])
def test_nan_costs_are_refused(name):
    with pytest.raises(ValueError, match=f"{name} must be non-negative, got nan"):
        RecombinationConfig(**{name: math.nan})
    RecombinationConfig(**{name: INF})  # the forbidden-switch sentinel stays


def _bitwise(result):
    m_rec, e_rec, path = result
    return type(m_rec), repr(m_rec), repr(e_rec), path


_COSTS = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, INF])


@st.composite
def recombination_batches(draw):
    """Mixed batches: G 1-6, lengths from 1, signed fingers from a small or
    a tiny alphabet (heavy ties), and all-infeasible rows when c_sub or
    the switch costs are infinite."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 12))
        n_g = draw(st.integers(1, 6))
        fingers = draw(st.sampled_from([(1, -1), (1, 2, -3), (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)]))
        finger_lists = st.lists(st.sampled_from(fingers), min_size=n, max_size=n)
        pairs.append((draw(finger_lists), [draw(finger_lists) for _ in range(n_g)]))
    config = RecombinationConfig(c_rec=draw(_COSTS), c_rec_prime=draw(_COSTS), c_sub=draw(_COSTS))
    return pairs, config


@settings(max_examples=200, deadline=None)
@given(recombination_batches())
def test_batch_equals_reference_loop_bitwise(batch):
    pairs, config = batch
    results = recombination_match_rates(pairs, config)
    assert len(results) == len(pairs)
    for (est, gts), result in zip(pairs, results):
        expected = _bitwise(reference.reference_recombination(est, gts, config))
        assert _bitwise(result) == expected
        assert _bitwise(recombination_match_rates([(est, gts)], config)[0]) == expected
        report = match_rate_report(est, gts, config)  # the DP without its parents
        assert _bitwise((report.m_rec, report.e_rec, expected[3])) == expected


@pytest.mark.parametrize("config", [DEFAULT_COSTS, RecombinationConfig(0.5, 1.0, 1.0)])
def test_long_tie_heavy_rows_equal_reference_loop(rng, config):
    # The prefix-key bound starts at rows * G and grows by a factor of
    # (running rows) * G per note, so the keys would pass 2**62 and are
    # re-densified every 62 / log2(rows * G) notes: about every 17 notes for
    # 6 rows at G = 2 and every 62 for a lone row, many times in rows of up
    # to 300 notes (72 times in this batch under the default costs).
    pairs = []
    for n_g in range(2, 7):
        for n in rng.integers(1, 301, size=6):
            fingers = rng.choice([1, -1], size=(n_g + 1, n)).tolist()
            pairs.append((fingers[0], fingers[1:]))
    for (est, gts), result in zip(pairs, recombination_match_rates(pairs, config)):
        assert repr(result) == repr(reference.reference_recombination(est, gts, config))


def test_batches_that_only_need_e_rec_do_no_tie_work(monkeypatch):
    calls = [count_calls(monkeypatch, _tables, name) for name in ("best_parents", "rerank")]
    gts = [[1, 2, 1, 2, 3], [1, 1, 2, 2, 3], [2, 1, 1, 2, 3]]
    est = [1, 2, 2, 2, 3]
    piece = make_piece([60, 62, 64, 65, 67])
    hand_reports([("p", piece, gts, est), ("p", piece, gts, None)])
    match_rates("m_rec", [(est, gts), (est, gts[:2])])
    match_rate_report(est, gts)
    assert calls == [[], []]
    recombination_match_rates([(est, gts)])
    assert all(calls)


def test_all_infeasible_rows_take_the_zero_path():
    config = RecombinationConfig(c_sub=INF)
    pairs = [([1, 2, 3], [[2, 2, 3], [1, 3, 3]]), ([1, 2], [[1, 2], [3, 2]]), ([4], [[5]])]
    results = recombination_match_rates(pairs, config)
    assert results[0] == (-INF, INF, (0, 0, 0))
    assert results[1] == (1.0, 0.0, (0, 0))
    assert results[2] == (-INF, INF, (0,))


def test_report_formatting():
    reports = {
        "010": match_rate_report([1, 2, 3], [[1, 2, 3], [1, 2, 4]]),
        "002": match_rate_report([1, 1], [[1, 2]]),
    }
    summary = summarize(reports)
    assert summary["n_pieces"] == 2 and summary["n_notes"] == 5
    text = format_report_text(reports, summary)
    table = format_report_table(reports, summary)
    assert text.splitlines()[1].lstrip().startswith("002")  # sorted by piece id
    assert "macro" in text and "micro" in text
    rows = [line.split("\t") for line in table.strip().splitlines()]
    assert rows[0][0] == "piece" and rows[-2][0] == "macro"
    assert len(rows) == 1 + 2 + 2