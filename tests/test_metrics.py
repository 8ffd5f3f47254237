import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_trial_oracles import rows
from spoofsense.errors import DegenerateLabels, IllPosedCostModel, ParseError
from spoofsense.metrics import (
    CostModel,
    ScoreSet,
    eer,
    evaluate_scorefile,
    min_tdcf,
    parse_scorefile,
    write_report,
)

COST = CostModel(
    p_target=0.9405,
    p_nontarget=0.0095,
    p_spoof=0.05,
    c_miss_asv=1.0,
    c_fa_asv=10.0,
    c_miss_cm=1.0,
    c_fa_cm=10.0,
    p_miss_asv=0.05,
    p_fa_asv=0.01,
    p_miss_spoof_asv=0.45,
)


def make_set(pos, neg):
    return ScoreSet(
        scores=np.array(list(pos) + list(neg), dtype=np.float64),
        labels=np.array([True] * len(pos) + [False] * len(neg)),
    )


def naive_eer(pos, neg):
    """O(n^2) reference sweep: accept iff score >= t."""
    pos, neg = np.asarray(pos, float), np.asarray(neg, float)
    cands = np.concatenate([np.unique(np.concatenate([pos, neg])), [np.inf]])
    best, best_gap = None, None
    for t in cands:  # ascending; first minimum wins => smallest threshold
        far = np.mean(neg >= t)
        frr = np.mean(pos < t)
        gap = abs(far - frr)
        if best_gap is None or gap < best_gap:
            best_gap, best = gap, (far, frr, t)
    far, frr, t = best
    return (far + frr) / 2, t


def naive_min_tdcf(pos, neg, cost):
    c1, c2 = cost.coefficients()
    cands = np.concatenate([np.unique(np.concatenate([pos, neg])), [np.inf]])
    best = None
    for t in cands:
        far = np.mean(neg >= t)
        frr = np.mean(pos < t)
        val = (c1 * frr + c2 * far) / min(c1, c2)
        if best is None or val < best:
            best = val
    return best


def test_hand_worked_example():
    s = make_set([3, 4, 5], [1, 2, 3.5])
    r = eer(s)
    assert r.eer == 1 / 3
    assert r.threshold == 3.5


def test_perfect_and_degenerate_overlap():
    assert eer(make_set([3, 4], [1, 2])).eer == 0.0
    assert eer(make_set([1, 2, 3], [1, 2, 3])).eer == 0.5


def test_cost_coefficients_example():
    c1, c2 = COST.coefficients()
    assert c1 == pytest.approx(0.8925249999999999, abs=1e-15)
    assert c2 == pytest.approx(0.275, abs=1e-15)


def test_all_equal_scores_tdcf_boundary():
    s = make_set([0.0, 0.0], [0.0, 0.0])
    r = min_tdcf(s, COST)
    c1, c2 = COST.coefficients()
    assert r.min_tdcf_norm == min(c1, c2) / min(c1, c2) == 1.0


def test_oracle_equivalence_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_pos = rng.integers(1, 60)
        n_neg = rng.integers(1, 60)
        pos = np.round(rng.normal(1, 1, n_pos), 2)  # rounding forces ties
        neg = np.round(rng.normal(-1, 1, n_neg), 2)
        s = make_set(pos, neg)
        r = eer(s)
        ref_eer, ref_t = naive_eer(pos, neg)
        assert abs(r.eer - ref_eer) < 1e-12
        assert r.threshold == ref_t
        assert abs(min_tdcf(s, COST).min_tdcf_norm - naive_min_tdcf(pos, neg, COST)) < 1e-12


@given(
    pos=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    neg=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    perm_seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(pos, neg, perm_seed):
    s = make_set(pos, neg)
    rng = np.random.default_rng(perm_seed)
    idx = rng.permutation(len(s.scores))
    shuffled = ScoreSet(scores=s.scores[idx], labels=s.labels[idx])
    assert eer(s).eer == eer(shuffled).eer
    assert eer(s).threshold == eer(shuffled).threshold


@given(
    pos=st.lists(st.integers(-100, 100), min_size=1, max_size=40),
    neg=st.lists(st.integers(-100, 100), min_size=1, max_size=40),
    shift=st.integers(-400, 400),
    scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
)
@settings(max_examples=60, deadline=None)
def test_affine_invariance_exact(pos, neg, shift, scale):
    # integer scores and power-of-two scales keep the map exact in floats,
    # so the sweep visits the same counts and EER must match bit for bit
    a = eer(make_set(pos, neg))
    b = eer(make_set([scale * x + shift for x in pos], [scale * x + shift for x in neg]))
    assert a.eer == b.eer
    assert b.threshold == scale * a.threshold + shift
    assert (
        min_tdcf(make_set(pos, neg), COST).min_tdcf_norm
        == min_tdcf(make_set([scale * x + shift for x in pos], [scale * x + shift for x in neg]), COST).min_tdcf_norm
    )


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    pos = rng.normal(1, 1, 30)
    neg = rng.normal(-1, 1, 30)
    base_eer = eer(make_set(pos, neg)).eer
    base_tdcf = min_tdcf(make_set(pos, neg), COST).min_tdcf_norm
    for _ in range(100):
        a, b, c = rng.uniform(0.1, 3, size=3)
        f = lambda v: a * np.exp(b * np.clip(v, -10, 10) / 10) + c * v
        s = make_set(f(pos), f(neg))
        assert eer(s).eer == pytest.approx(base_eer, abs=1e-15)
        assert min_tdcf(s, COST).min_tdcf_norm == pytest.approx(base_tdcf, abs=1e-15)


def test_tie_breaks_toward_smaller_threshold():
    # |FAR-FRR| = 0.5 at both t=0.5 and t=1.0; the smaller threshold wins
    s = make_set([0, 1], [0.5, 0.5])
    r = eer(s)
    assert r.threshold == 0.5
    assert r.eer == (1.0 + 0.5) / 2


def test_det_points_example():
    s = make_set([2], [1])
    _, far, frr = s.sweep
    pts = np.column_stack([far, frr])
    rows = {tuple(p) for p in pts}
    assert {(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)} <= rows
    # monotone along the sweep
    far, frr = pts[:, 0], pts[:, 1]
    assert np.all(np.diff(far) <= 0) and np.all(np.diff(frr) >= 0)


def test_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        eer(make_set([1, 2], []))
    with pytest.raises(DegenerateLabels):
        make_set([], [1]).sweep


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(**{**COST.__dict__, "p_target": 0.5})  # priors no longer sum to 1
    with pytest.raises(ValueError):
        CostModel(**{**COST.__dict__, "c_fa_cm": -1.0})
    with pytest.raises(ValueError):
        CostModel(**{**COST.__dict__, "p_miss_asv": 1.5})
    bad = {**COST.__dict__, "p_target": 0.0, "p_nontarget": 0.95, "p_spoof": 0.05}
    with pytest.raises(IllPosedCostModel):
        CostModel(**bad).coefficients()


def test_parse_scorefile_errors(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("t1\tA\ttarget\t1.0\nt2\tA\tbogus\t0.5\n")
    with pytest.raises(ParseError) as e:
        parse_scorefile(p)
    assert e.value.line == 2
    p.write_text("t1\tA\ttarget\n")
    with pytest.raises(ParseError):
        parse_scorefile(p)
    p.write_text("t1\tA\ttarget\tnan\n")
    with pytest.raises(ParseError):
        parse_scorefile(p)


def test_score_table_labels_are_shared_strings(tmp_path):
    """The label column holds one string object per distinct label, not one
    per row: the distinct names, and a small int code per row."""
    p = tmp_path / "s.tsv"
    p.write_text("".join("t%d\t-\t%s\t%d\n" % (i, ("target", "spoof")[i % 2], i)
                         for i in range(50)))
    table = parse_scorefile(p)
    assert len(table) == 50 and table.labels.tolist()[:2] == ["target", "spoof"]
    assert sorted(table.labels.names) == ["spoof", "target"]
    assert table.labels.codes.dtype == np.int32 and len(table.labels.codes) == 50
    assert len({id(label) for label in table.labels.tolist()}) == 2
    assert len({id(label) for _, label, _ in rows(table)}) == 2
    assert rows(table)[1] == ("-", "spoof", 1.0)


@pytest.mark.parametrize("cost", [None, COST], ids=["eer", "tdcf"])
def test_evaluate_scorefile_peak_per_row(tmp_path, cost):
    """evaluate_scorefile's tracemalloc peak on 60,000 rows of distinct
    scores, five groups and a shared pool: under 58 B per row.  The pooled
    row's sweep sets it; sweeping a sorted copy of the scores and building
    its arrays with fresh temporaries for each step held about 71 B per row."""
    n = 60000
    r = np.random.default_rng(0)
    groups = ["-" if k % 10 == 0 else "A%d" % (k % 5) for k in range(n)]
    p = tmp_path / "s.tsv"
    p.write_text("".join("t%d\t%s\t%s\t%r\n" % (k, g, "bonafide" if g == "-" or k % 7 == 0
                                                  else "spoof", v)
                         for k, (g, v) in enumerate(zip(groups, r.normal(size=n).tolist()))))
    gc.collect()
    tracemalloc.start()
    try:
        reports = evaluate_scorefile(p, cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [x.group for x in reports] == ["A0", "A1", "A2", "A3", "A4", "ALL"]
    assert peak / n < 58


def test_score_table_holds_no_trial_ids(tmp_path):
    """parse_scorefile keeps no trial ids, however long: its table holds
    about 16 B per row (a float64 score, two int32 codes).  With the ids
    kept packed it held about 81 B per row of 64-character ids."""
    n = 20000
    p = tmp_path / "s.tsv"
    p.write_text("".join("%064d\t%s\t%s\t%d\n" % (k, ("-", "A07")[k % 2],
                                                   ("bonafide", "spoof")[k % 2], k)
                         for k in range(n)))
    gc.collect()
    tracemalloc.start()
    try:
        table = parse_scorefile(p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / n < 20
    assert table.trial_ids is None and len(table) == n
    assert rows(table)[:2] == [("-", "bonafide", 0.0), ("A07", "spoof", 1.0)]

    one = tmp_path / "one.tsv"
    one.write_text("\t-\ttarget\t1\n")  # an empty trial id
    assert rows(parse_scorefile(one)) == [("-", "target", 1.0)]
    one.write_text("\t-\ttarget\t1\na\t-\tspoof\t0\n\t-\tspoof\t2\n")
    assert rows(parse_scorefile(one)) == [("-", "target", 1.0), ("-", "spoof", 0.0),
                                          ("-", "spoof", 2.0)]


def test_tables_compare_by_identity(tmp_path):
    """ScoreTable, Column and ScoreSet hold numpy arrays, so == and hash go
    by identity; on more than one row the field-wise == would raise."""
    p = tmp_path / "s.tsv"
    p.write_text("t1\tA\ttarget\t1.0\nt2\tB\tspoof\t0.5\nt3\tA\tspoof\t0.2\n")
    a, b = parse_scorefile(p), parse_scorefile(p)
    s, t = make_set([3, 4], [1, 2]), make_set([3, 4], [1, 2])
    for x, y in ((a, b), (a.groups, b.groups), (a.labels, b.labels), (s, t)):
        assert x == x and not x != x
        assert not x == y and x != y
        assert len({x, y, x}) == 2
    assert b.trial_ids is None and a.scores.tolist() == b.scores.tolist()


def test_score_table_groups_are_shared_strings(tmp_path):
    """The group column holds one string object per distinct group, not one per row."""
    p = tmp_path / "s.tsv"
    p.write_text("".join("t%d\t%s\tspoof\t%d\n" % (i, ("A07", "A08", "-")[i % 3], i)
                         for i in range(60)))
    table = parse_scorefile(p)
    assert table.groups.tolist()[:3] == ["A07", "A08", "-"]
    assert sorted(table.groups.names) == ["-", "A07", "A08"]
    assert table.groups.codes.dtype == np.int32 and len(table.groups.codes) == 60
    assert len({id(group) for group in table.groups.tolist()}) == 3


def test_group_named_all_is_rejected(tmp_path):
    """ALL names the pooled report row, so a score-file group may not use it."""
    p = tmp_path / "s.tsv"
    p.write_text("t1\tA\ttarget\t1.0\n\nt2\tALL\tspoof\t0.5\nt3\tA\tspoof\t0.2\n")
    with pytest.raises(ParseError) as e:
        parse_scorefile(p)
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        evaluate_scorefile(p)
    assert e.value.line == 3


def test_evaluate_groups_and_pooling(tmp_path):
    p = tmp_path / "s.tsv"
    lines = ["p%d\t-\tbonafide\t%g" % (i, 1 + 0.1 * i) for i in range(4)]
    lines += ["a%d\tA17\tspoof\t%g" % (i, -1 - 0.1 * i) for i in range(3)]
    lines += ["b%d\tA19\tspoof\t%g" % (i, 0.95 + 0.1 * i) for i in range(3)]
    p.write_text("\n".join(lines) + "\n")
    reports = evaluate_scorefile(p, COST)
    assert [r.group for r in reports] == ["A17", "A19", "ALL"]
    byg = {r.group: r for r in reports}
    assert byg["A17"].n_pos == 4 and byg["A17"].n_neg == 3
    assert byg["A17"].eer == 0.0 and byg["A17"].min_tdcf == 0.0
    # A19 spoof scores interleave the bonafide range: EER = (1/3 + 1/4) / 2
    assert byg["A19"].eer == pytest.approx(7 / 24, abs=1e-12)
    assert byg["ALL"].n_pos == 4 and byg["ALL"].n_neg == 6


def test_single_group_equals_pooled(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text(
        "t1\tG\ttarget\t2\nt2\tG\ttarget\t0.5\nt3\tG\tnontarget\t1\nt4\tG\tnontarget\t-1\n"
    )
    reports = evaluate_scorefile(p)
    assert len(reports) == 2
    assert reports[0].eer == reports[1].eer
    assert reports[0].threshold == reports[1].threshold


def test_write_report_format():
    s = make_set([3, 4, 5], [1, 2, 3.5])
    r = eer(s)
    from spoofsense.metrics import GroupReport

    rep = GroupReport(group="ALL", n_pos=3, n_neg=3, eer=r.eer, threshold=r.threshold)
    fh = io.StringIO()
    write_report([rep], fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "group,n_pos,n_neg,eer,threshold"
    assert lines[1].startswith("ALL,3,3,0.333333333333")


def test_decode_error_names_the_line(tmp_path):
    """A bad byte far into a large score file is reported at its line and
    file offset, not at the offset within the chunk the text layer decoded."""
    rows = b"".join(b"u%05d\t-\tbonafide\t0.5\n" % i for i in range(19000))
    assert len(rows) > 400_000
    p = tmp_path / "big.tsv"
    p.write_bytes(rows + b"\xffs0\tA01\tspoof\t-1\n")
    with pytest.raises(ParseError) as exc:
        parse_scorefile(p)
    assert exc.value.line == 19001
    assert str(exc.value) == (
        "%s line 19001: 'utf-8' codec can't decode byte 0xff in position %d: "
        "invalid start byte" % (p, len(rows))
    )
