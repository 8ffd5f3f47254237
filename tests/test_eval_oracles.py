"""Exact parity of the columnar score-file and trial code with its row loops.

The loop versions below are the original parse_scorefile,
evaluate_scorefile, load_trials, score_trials and write_scorefile, kept
as oracles, changed only in their names, in the parse loop's label column
(the label string it read), in using the one EER rule, and in building a
TrialSet through conftest.trial_set and reading it by iterating its rows,
since a TrialSet is now columns too.  Two checks were added to the loops,
since the columnar code makes them: the parse loop rejects the reserved
group name 'ALL', after the score's finiteness, and the trial loop a label
that contradicts its category, after the category.  The columnar code
must give equal rows (a parsed score file's without its trial ids, which
parse_scorefile does not keep), GroupReports compared with ==, byte-equal
score, trial and report files, and on a faulty input the same exception
class, message and line; a ParseError's message now starts with the file's
path, and the rest of it must equal the loop's.  One message has changed on
purpose, in evaluate_scorefile_loop too: a file without trials, or a group
without positive or without negative trials, raises DegenerateLabels naming
the file, and the group with its counts, before the group's sweep.

The score file and trial list are read tsv.BLOCK_CHARS characters at a
time; the tests at the bottom set that size as low as one character and
compare with the loops.

The parse loop rejects a score text that holds '_' or a non-ASCII
character, as parse_scorefile does: float() reads '1_0' as 10 and '١' as 1,
which no score format writes.

The threshold sweep sorts each score set once and counts labels, and
evaluate_scorefile sorts a file's scores once for every group.  The sweep
and evaluate_scorefile as they were before, with np.unique and
np.searchsorted on each group's scores, are kept below as oracles too
(OracleScoreSet.sweep, evaluate_scorefile_sorted_per_group); the reports
must be equal, apart from one thing the old sweep left to the sort: a zero
threshold is now -0 when any trial of the group scores -0 and 0 otherwise,
where np.unique printed whichever zero its sort put first.

eer and min_tdcf read a sweep metrics.SWEEP_SLICE points at a time and
keep the first minimum; the whole-array read-outs from before are kept as
oracles (eer_whole, min_tdcf_whole), which the loops above use, and the
tests of the sweep read-outs hold the slices to them at slice lengths of
1, 2, 3 and 7.  score_trials is run with CHUNK_PAIRS as low as 1 too.
"""

import io
import itertools
import math
import os
import random
import tempfile
from dataclasses import astuple, replace
from functools import cached_property
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PAST_ONE_BLOCK, embeddings, line_start, trial_set
from test_trial_oracles import rows
from spoofsense import metrics, trials, tsv
from spoofsense.errors import DegenerateLabels, MissingEmbedding, ParseError, ZeroVector
from spoofsense.metrics import (
    NEGATIVE_LABELS,
    POOLED,
    POSITIVE_LABELS,
    CostModel,
    EerResult,
    GroupReport,
    ScoreSet,
    TdcfResult,
    eer,
    evaluate_scorefile,
    min_tdcf,
    parse_scorefile,
    write_report,
)
from spoofsense.trials import (
    CATEGORIES,
    CHUNK_PAIRS,
    POSITIVE_CATEGORIES,
    TrialPair,
    cosine_score,
    load_trials,
    save_trials,
    score_trials,
    write_scorefile,
)
from spoofsense.tsv import BLOCK_CHARS, isin

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


# ---------------------------------------------------------------- oracles


def parse_scorefile_loop(path):
    """Rows of (trial_id, group, label, score); group '-' = ungrouped."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError("expected 4 tab-separated fields", line=lineno)
            trial_id, group, label, score_text = parts
            if label not in POSITIVE_LABELS | NEGATIVE_LABELS:
                raise ParseError("unknown label %r" % label, line=lineno)
            try:
                if not (score_text.isascii() and "_" not in score_text):
                    raise ValueError(score_text)
                score = float(score_text)
            except ValueError:
                raise ParseError("bad score %r" % score_text, line=lineno) from None
            if not np.isfinite(score):
                raise ParseError("non-finite score", line=lineno)
            if group == POOLED:
                raise ParseError("group name %r is reserved for the pooled row" % POOLED,
                                 line=lineno)
            rows.append((trial_id, group, label, score))
    return rows


def evaluate_scorefile_loop(path, mode="eer", cost=None):
    """Per-group and pooled metrics.

    Ungrouped rows (group '-') are shared into every named group, mirroring
    protocols where one bonafide set is reused against each attack; the ALL
    row pools everything.
    """
    if mode not in ("eer", "tdcf"):
        raise ValueError("mode must be 'eer' or 'tdcf'")
    if mode == "tdcf" and cost is None:
        raise ValueError("tdcf mode needs a CostModel")
    rows = parse_scorefile_loop(path)
    named = sorted({g for _, g, _, _ in rows if g != "-"})
    shared = [r for r in rows if r[1] == "-"]
    reports = []
    for group in named + ["ALL"]:
        members = rows if group == "ALL" else [r for r in rows if r[1] == group] + shared
        labels = np.array([r[2] in POSITIVE_LABELS for r in members], dtype=bool)
        if not members:
            raise DegenerateLabels("%s: no trials" % path)
        if labels.all() or not labels.any():
            raise DegenerateLabels("%s: group %s has %d positive and %d negative trials"
                                   % (path, group, labels.sum(), (~labels).sum()))
        scores = np.array([r[3] for r in members], dtype=np.float64)
        s = ScoreSet(scores=scores, labels=labels)
        e = eer_whole(s)
        td = min_tdcf_whole(s, cost).min_tdcf_norm if mode == "tdcf" else None
        reports.append(
            GroupReport(
                group=group,
                n_pos=int(labels.sum()),
                n_neg=int((~labels).sum()),
                eer=e.eer,
                threshold=e.threshold,
                min_tdcf=td,
            )
        )
    return reports


def load_trials_loop(path):
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError("expected 4 fields", line=lineno)
            a, b, label, cat = parts
            if label not in ("positive", "negative"):
                raise ParseError("unknown label %r" % label, line=lineno)
            if cat not in CATEGORIES:
                raise ParseError("unknown category %r" % cat, line=lineno)
            if (label == "positive") != (cat in POSITIVE_CATEGORIES):
                raise ParseError("label %r contradicts category %r" % (label, cat), line=lineno)
            pairs.append(TrialPair(a, b, label=label, category=cat))
    return trial_set(pairs)


def score_trials_loop(ts, emb):
    """One cosine score per pair.

    Negative categories keep their category as the score-file group;
    positive pairs get the shared group '-' so that every attack
    category is evaluated against the common pool of genuine pairs.
    """
    out = []
    for p in ts:
        for utt in (p.utt_a, p.utt_b):
            if utt not in emb.vectors:
                raise MissingEmbedding(utt)
        positive = p.label == "positive"
        out.append((
            "%s:%s" % (p.utt_a, p.utt_b),
            "-" if positive else p.category,
            "target" if positive else "nontarget",
            cosine_score(emb.vectors[p.utt_a], emb.vectors[p.utt_b]),
        ))
    return out


def write_scorefile_loop(path, scored):
    with open(path, "w") as fh:
        for trial_id, group, label, score in scored:
            fh.write("%s\t%s\t%s\t%.12g\n" % (trial_id, group, label, score))


class OracleScoreSet(ScoreSet):
    """A ScoreSet whose sweep is the one from before the count-based sweep."""

    def split(self):
        if not self.labels.any() or self.labels.all():
            raise DegenerateLabels("need at least one positive and one negative trial")
        return np.sort(self.scores[self.labels]), np.sort(self.scores[~self.labels])

    @cached_property
    def sweep(self):
        """Thresholds (ascending, +inf last) with FAR/FRR at each; computed
        once per score set, however many metrics read it."""
        pos, neg = self.split()
        thresholds = np.unique(self.scores)
        thresholds = np.append(thresholds, np.inf)
        far = (len(neg) - np.searchsorted(neg, thresholds, side="left")) / len(neg)
        frr = np.searchsorted(pos, thresholds, side="left") / len(pos)
        for a in (thresholds, far, frr):  # shared by every reader
            a.flags.writeable = False
        return thresholds, far, frr


def eer_whole(s):
    """eer as it was before it read the sweep a slice at a time."""
    t, far, frr = s.sweep
    gap = far - frr
    i = int(np.argmin(np.abs(gap, out=gap)))
    return EerResult(eer=float((far[i] + frr[i]) / 2.0), threshold=float(t[i]))


def min_tdcf_whole(cm, cost):
    """min_tdcf as it was before it read the sweep a slice at a time."""
    c1, c2 = cost.coefficients()
    t, far, frr = cm.sweep
    tdcf = c1 * frr
    tdcf += c2 * far
    tdcf /= min(c1, c2)
    i = int(np.argmin(tdcf))
    return TdcfResult(min_tdcf_norm=float(tdcf[i]), threshold=float(t[i]))


def evaluate_scorefile_sorted_per_group(path, cost=None):
    """evaluate_scorefile as it was before the one sort per file, on the
    parse loop's columns and with OracleScoreSet for ScoreSet."""
    rows = parse_scorefile_loop(path)
    table = SimpleNamespace(groups=[r[1] for r in rows], labels=[r[2] for r in rows],
                            scores=np.array([r[3] for r in rows], dtype=np.float64))
    positive = isin(table.labels, POSITIVE_LABELS)
    code = {g: k for k, g in enumerate(sorted(set(table.groups) | {"-"}))}
    codes = np.fromiter(map(code.__getitem__, table.groups), np.intp, len(table.groups))
    shared = np.flatnonzero(codes == code.pop("-"))
    reports = []
    for group in list(code) + [POOLED]:
        if group == POOLED:
            members = slice(None)
        else:
            members = np.concatenate([np.flatnonzero(codes == code[group]), shared])
        labels = positive[members]
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        if not len(labels):
            raise DegenerateLabels("%s: no trials" % path)
        if not (n_pos and n_neg):
            raise DegenerateLabels("%s: group %s has %d positive and %d negative trials"
                                   % (path, group, n_pos, n_neg))
        s = OracleScoreSet(scores=table.scores[members], labels=labels)
        e = eer_whole(s)
        td = min_tdcf_whole(s, cost).min_tdcf_norm if cost is not None else None
        reports.append(
            GroupReport(
                group=group,
                n_pos=n_pos,
                n_neg=n_neg,
                eer=e.eer,
                threshold=e.threshold,
                min_tdcf=td,
            )
        )
    return reports


def zero_sign_rule(reports, rows):
    """reports with each zero threshold -0 when a trial of its group scores
    -0, else 0; rows are the file's (trial_id, group, label, score)."""
    out = []
    for r in reports:
        if r.threshold == 0:
            members = [s for _, g, _, s in rows if r.group == POOLED or g in (r.group, "-")]
            signed = any(np.signbit(s) for s in members if s == 0)
            r = replace(r, threshold=-0.0 if signed else 0.0)
        out.append(r)
    return out


# ---------------------------------------------------------------- helpers


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("raised", class, message, line) of one call."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as e:  # parity covers every exception, not one class
        return ("raised", type(e), str(e), getattr(e, "line", None))


def exact(rows):
    """Score-file rows, their score last, with floats as hex, so -0.0 and
    0.0 differ."""
    return [row[:-1] + (row[-1].hex(),) for row in rows]


def report_bytes(reports):
    fh = io.StringIO()
    write_report(reports, fh)
    return fh.getvalue()


def write_text(path, lines, newline="\n", trailing=True):
    """Write lines joined by newline verbatim (no newline translation)."""
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(lines) + (newline if trailing else ""))


def assert_same_outcome(new, old, path=None):
    """new equals old where old raised; a loader of the file at path names
    it in a ParseError: the path, a space, then the loop's message."""
    if old[:2] == ("raised", ParseError) and path is not None:
        old = old[:2] + ("%s %s" % (path, old[2]),) + old[3:]
    if old[0] == "raised":
        assert new == old
    else:
        assert new[0] == "ok"


def check_scorefile(path):
    """The columnar parse and evaluation against the loops on one file."""
    old = outcome(parse_scorefile_loop, path)
    new = outcome(parse_scorefile, path)
    assert_same_outcome(new, old, path)
    if old[0] == "ok":  # the loop's rows without their trial ids
        assert new[1].trial_ids is None
        assert exact(rows(new[1])) == exact([row[1:] for row in old[1]])
        assert len(new[1]) == len(old[1])
    for cost in (None, COST):
        old = outcome(evaluate_scorefile_loop, path, mode="tdcf" if cost else "eer", cost=cost)
        new = outcome(evaluate_scorefile, path, cost)
        assert_same_outcome(new, old, path)
        if old[0] == "ok":
            assert new[1] == old[1]
            assert report_bytes(new[1]) == report_bytes(old[1])
        old = outcome(evaluate_scorefile_sorted_per_group, path, cost)
        assert_same_outcome(new, old, path)
        if old[0] == "ok":
            assert new[1] == old[1]
            assert report_bytes(new[1]) == report_bytes(
                zero_sign_rule(old[1], parse_scorefile_loop(path)))


def check_trials(path, tmpdir):
    old = outcome(load_trials_loop, path)
    new = outcome(load_trials, path)
    assert_same_outcome(new, old, path)
    if old[0] == "ok":
        assert tuple(new[1]) == tuple(old[1])
        save_trials(os.path.join(tmpdir, "old.tsv"), old[1])
        save_trials(os.path.join(tmpdir, "new.tsv"), new[1])
        assert read_bytes(tmpdir, "new.tsv") == read_bytes(tmpdir, "old.tsv")


def check_scoring(ts, vectors, tmpdir):
    """score_trials on the Embeddings of a dict utt_id -> vector against the
    loop, which reads the dict."""
    old = outcome(score_trials_loop, ts, SimpleNamespace(vectors=vectors))
    new = outcome(score_trials, ts, embeddings(vectors))
    assert_same_outcome(new, old)
    if old[0] == "ok":
        assert len(new[1]) == len(old[1])
        assert rows(new[1]) == old[1]
        write_scorefile_loop(os.path.join(tmpdir, "old.scores"), old[1])
        write_scorefile(os.path.join(tmpdir, "new.scores"), new[1])
        assert read_bytes(tmpdir, "new.scores") == read_bytes(tmpdir, "old.scores")
    return new


def read_bytes(tmpdir, name):
    with open(os.path.join(tmpdir, name), "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------- score files

# ties, signed zeros and values the sweep must order exactly
TIED = [-1.5, -0.0, 0.0, 0.25, 1.0, 2.0]
LABELS = ["target", "bonafide", "nontarget", "spoof"]
FORMATS = [repr, "%.6f".__mod__, "%g".__mod__, "%.3e".__mod__, " {} ".format]
BLANKS = ["", " ", "\t", "  \t "]

score_value = st.one_of(
    st.sampled_from(TIED), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)
score_row = st.tuples(
    st.sampled_from(["-", "A01", "A02", " B ", "ALL "]),  # "ALL " is not the reserved name
    st.sampled_from(LABELS),
    score_value,
    st.sampled_from(FORMATS),
)


def score_lines(rows, blanks):
    """trial_id<TAB>group<TAB>label<TAB>score lines with blank lines spliced in."""
    lines = ["t%d\t%s\t%s\t%s" % (i, g, lab, fmt(v)) for i, (g, lab, v, fmt) in enumerate(rows)]
    for pos, blank in sorted(blanks, reverse=True):
        lines.insert(min(pos, len(lines)), blank)
    return lines


@given(
    rows=st.lists(score_row, max_size=30),
    blanks=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(BLANKS)), max_size=4),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_scorefile_matches_loops(rows, blanks, newline, trailing):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.tsv")
        write_text(path, score_lines(rows, blanks), newline, trailing)
        check_scorefile(path)


@pytest.mark.parametrize(
    "groups",
    [
        ["-"],  # only the shared pool: the report is the ALL row alone
        ["A01"],  # one named group, no shared pool
        ["-", "A01"],  # one named group with a shared pool
        ["-", "A01", "A02", "B"],
    ],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_scorefile_shapes_match_loops(tmp_path, groups, newline):
    rng = np.random.default_rng(len(groups))
    rows = [
        (groups[i % len(groups)], LABELS[i // len(groups) % 4], TIED[rng.integers(len(TIED))], repr)
        for i in range(40)
    ]
    blanks = [(0, ""), (7, "   "), (20, "\t"), (40, "")]
    path = tmp_path / "s.tsv"
    write_text(path, score_lines(rows, blanks), newline)
    check_scorefile(path)
    assert [r.group for r in evaluate_scorefile(path)] == sorted(set(groups) - {"-"}) + ["ALL"]


# a faulty line of each kind, as the loop checks them: field count, label,
# score text, finiteness, group name
SCORE_FAULTS = {
    "fields": "bad\tA01\ttarget",
    "label": "bad\tA01\tbogus\t1.0",
    "score": "bad\tA01\tspoof\tone",
    "nonfinite": "bad\tA01\tspoof\t1e999",
    "pooled-group": "bad\tALL\tspoof\t1.0",
    "digit-group": "bad\tA01\tspoof\t1_0",  # float() reads 10
    "other-script": "bad\tA01\tspoof\t\u0661",  # ARABIC-INDIC DIGIT ONE, which float() reads
}


def faulty_file(good, faults, n=12):
    """n lines, every 50th blank, with faults {position: line} inserted after blank lines."""
    lines = [" " if i % 50 == 49 else good(i) for i in range(n)]
    for pos in sorted(faults, reverse=True):
        lines[pos:pos] = ["", "  ", faults[pos]]
    return lines


def good_score_line(i):
    return "t%d\t%s\t%s\t%g" % (i, "-" if i % 3 == 0 else "A01", LABELS[i % 4], i * 0.5 - 2)


@pytest.mark.parametrize("kind", sorted(SCORE_FAULTS))
@pytest.mark.parametrize("pos", [0, 6, 12, PAST_ONE_BLOCK])
def test_scorefile_fault_parity(tmp_path, kind, pos):
    path = tmp_path / "s.tsv"
    lines = faulty_file(good_score_line, {pos: SCORE_FAULTS[kind]}, n=max(12, pos))
    assert pos < PAST_ONE_BLOCK or line_start(lines, lines.index(SCORE_FAULTS[kind])) > BLOCK_CHARS
    write_text(path, lines)
    check_scorefile(path)
    with pytest.raises(ParseError) as e:
        parse_scorefile(path)
    assert e.value.line == lines.index(SCORE_FAULTS[kind]) + 1


@pytest.mark.parametrize(
    "first,second", list(itertools.permutations(sorted(SCORE_FAULTS), 2))
)
def test_scorefile_two_faults_parity(tmp_path, first, second):
    path = tmp_path / "s.tsv"
    write_text(path, faulty_file(good_score_line, {3: SCORE_FAULTS[first], 8: SCORE_FAULTS[second]}))
    check_scorefile(path)


@pytest.mark.parametrize(
    "line",
    [
        "bad\tA01\tbogus\tone",  # label before score text
        "bad\tA01\tbogus\tinf",  # label before finiteness
        "bad\tA01\tspoof\tnan\textra",  # field count first
        "bad\tALL\tspoof\tnan",  # finiteness before the group name
        "bad\tALL\tbogus\t1.0",  # label before the group name
    ],
)
def test_scorefile_faults_on_one_line_parity(tmp_path, line):
    path = tmp_path / "s.tsv"
    write_text(path, faulty_file(good_score_line, {5: line}))
    check_scorefile(path)


@given(
    rows=st.lists(score_row, min_size=1, max_size=20),
    fault=st.sampled_from(sorted(SCORE_FAULTS)),
    at=st.integers(0, 20),
)
@settings(max_examples=25, deadline=None)
def test_scorefile_random_fault_parity(rows, fault, at):
    lines = score_lines(rows, [])
    lines.insert(min(at, len(lines)), SCORE_FAULTS[fault])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.tsv")
        write_text(path, lines)
        check_scorefile(path)


# ---------------------------------------------------------------- the sweep

# every way to write a zero, and a few values that tie with each other
ZERO_TEXTS = ["0", "-0", "0.0", "-0.0", "+0", "0e0", "-0e5"]
TIED_TEXTS = ZERO_TEXTS + ["1", "-1", "0.5", "2", "1.0", "-1e0"]


@given(
    scores=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.5]) | score_value,
                    min_size=1, max_size=60),
    labels=st.lists(st.booleans(), min_size=60, max_size=60),
    order=st.sampled_from(["drawn", "value", "total"]),
)
@example(scores=[0.0, -0.0, 1.0], labels=[True, False, True] * 20, order="value")
@settings(max_examples=300, deadline=None)
def test_sweep_matches_the_oracle(scores, labels, order):
    """The count-based sweep against np.unique + np.searchsorted: the same
    FAR and FRR bits and threshold values, and the same EER and min t-DCF;
    a zero threshold is -0 when any score is -0.

    The scores come as drawn, sorted by value (ties, 0 and -0 among them, in
    the drawn order), or in total order (-0 before 0), which the sweep reads
    without sorting; value order with a 0 before a -0 is not total order,
    so it is sorted, and its threshold is still -0."""
    if order != "drawn":
        sign = order == "total"  # -0 before 0: by value, then by sign
        scores = sorted(scores, key=lambda v: (v, math.copysign(1.0, v) if sign else 0.0))
    scores, labels = np.array(scores), np.array(labels[:len(scores)])
    new = outcome(lambda: ScoreSet(scores, labels).sweep)
    old = outcome(lambda: OracleScoreSet(scores, labels).sweep)
    assert new[0] == old[0]
    if old[0] == "raised":
        assert new == old
        return
    (t, far, frr), (t_old, far_old, frr_old) = new[1], old[1]
    assert far.tobytes() == far_old.tobytes() and frr.tobytes() == frr_old.tobytes()
    assert np.array_equal(t, t_old)
    zero = t == 0
    if zero.any():
        assert np.signbit(t[zero]) == np.signbit(scores[scores == 0]).any()
    assert eer(ScoreSet(scores, labels)) == eer(OracleScoreSet(scores, labels))
    assert min_tdcf(ScoreSet(scores, labels), COST) == min_tdcf(OracleScoreSet(scores, labels), COST)


# ---------------------------------------------------------------- sweep read-outs

SLICES = [1, 2, 3, 7]
# a cost whose C2 exceeds its C1, so that rejecting every trial (the +inf
# threshold) can be the min t-DCF; under COST it is never below 3.2
COST_FA = replace(COST, c_fa_cm=100.0)


def bits(result):
    """An EerResult's or TdcfResult's fields as hex, so -0.0 and 0.0 differ."""
    return tuple(float(v).hex() for v in astuple(result))


def check_read_outs(s, slices=SLICES):
    """eer and min_tdcf of s at each slice length against the whole-array
    oracles: the same bits."""
    for n in slices:
        with mock.patch.object(metrics, "SWEEP_SLICE", n):
            assert bits(eer(s)) == bits(eer_whole(s))
            for cost in (COST, COST_FA):
                assert bits(min_tdcf(s, cost)) == bits(min_tdcf_whole(s, cost))


def sweep_of(values):
    """A sweep whose |FAR - FRR| and t-DCF rank its points as values do:
    FAR = values, FRR = 0, thresholds 0, 1, ... and +inf last."""
    t = np.append(np.arange(len(values) - 1.0), np.inf)
    return SimpleNamespace(sweep=(t, np.array(values, np.float64), np.zeros(len(values))))


SWEEPS = {  # name -> (values, the index of their first minimum)
    # the minimum at 2, 4, 6 and 8, each in a slice of its own at lengths 1,
    # 2 and 3, and 8 in the second slice at 7
    "tie-across-slices": ([0.9, 0.5, 0.25, 0.6, 0.25, 0.75, 0.25, 0.8, 0.25, 1.0], 2),
    "first": ([0.25, 0.5, 0.75, 0.25, 1.0, 0.25, 0.5, 0.625, 0.25], 0),
    "first-alone": ([0.125, 0.5, 0.75, 0.25, 1.0, 0.25, 0.5, 0.625, 0.25], 0),
    "last": ([1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125, 0.0625, 0.0], 9),
    "short": ([0.5, 0.25], 1),  # shorter than a slice of 3 or 7
    "one": ([0.5], 0),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_read_outs_keep_the_first_minimum(name):
    values, first = SWEEPS[name]
    s = sweep_of(values)
    check_read_outs(s, SLICES + [metrics.SWEEP_SLICE])
    assert eer(s).threshold == s.sweep[0][first]
    assert min_tdcf(s, COST).threshold == s.sweep[0][first]


@pytest.mark.parametrize("n", SLICES)
def test_read_outs_tie_at_a_slice_edge(n):
    """Equal minima at the last point of one slice and the first of the
    next, and again a slice later: the first wins."""
    values = [0.5] * (3 * n + 1)
    values[n - 1] = values[n] = values[2 * n] = 0.25
    s = sweep_of(values)
    check_read_outs(s, [n])
    with mock.patch.object(metrics, "SWEEP_SLICE", n):
        assert eer(s).threshold == min_tdcf(s, COST).threshold == n - 1


def test_read_outs_at_the_sweep_ends():
    """A positive below a negative: the min t-DCF lies at the first
    threshold under COST and at +inf under COST_FA."""
    s = ScoreSet(np.array([0.0, 1.0]), np.array([True, False]))
    check_read_outs(s)
    assert min_tdcf(s, COST).threshold == 0.0
    assert min_tdcf(s, COST_FA).threshold == np.inf


@given(
    scores=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.5]) | score_value,
                    min_size=1, max_size=40),
    labels=st.lists(st.booleans(), min_size=40, max_size=40),
)
@example(scores=[0.0, 1.0], labels=[True, False] * 20)
@settings(max_examples=200, deadline=None)
def test_read_outs_match_the_whole_sweep(scores, labels):
    """eer and min_tdcf of score sets, ties and zeros among them, at each
    slice length: the bits of the whole-array read-outs."""
    s = ScoreSet(np.array(scores), np.array(labels[:len(scores)]))
    if outcome(lambda: s.sweep)[0] == "ok":
        check_read_outs(s)


tied_row = st.tuples(
    st.sampled_from(["-", "-", "A", "A", "B", "C"]),  # C is often a one-row group
    st.sampled_from(LABELS),
    st.sampled_from(TIED_TEXTS),
)


@given(
    rows=st.lists(tied_row, max_size=40),
    shared_only=st.booleans(),
    one_label=st.sampled_from([None, "target", "spoof"]),
)
@settings(max_examples=150, deadline=None)
def test_tied_files_match_the_oracles(rows, shared_only, one_label):
    """Files of heavy ties and zeros written every way, with one-row groups,
    files of only shared rows, and groups of one label: equal reports, or the
    same exception, as the loops and the sweep per group."""
    lines = []
    for i, (group, label, text) in enumerate(rows):
        if shared_only:
            group = "-"
        if one_label and group == "B":  # B's own trials all of one label
            label = one_label
        lines.append("t%d\t%s\t%s\t%s" % (i, group, label, text))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.tsv")
        write_text(path, lines)
        check_scorefile(path)


def test_tied_file_past_one_block(tmp_path):
    """More than a block of rows in eleven groups, of heavy ties and zeros of
    both signs, compared with the oracles."""
    rng = random.Random(5)
    groups = ["-", "-", "-"] + ["A%02d" % k for k in range(10)] + ["Z"]
    lines = []
    for i in range(BLOCK_CHARS // 12):
        group = rng.choice(groups[:-1]) if i != 4000 else "Z"  # Z: one row, past a block
        lines.append("t%d\t%s\t%s\t%s" % (i, group, rng.choice(LABELS), rng.choice(TIED_TEXTS)))
    path = tmp_path / "s.tsv"
    write_text(path, lines)
    assert line_start(lines, 4000) > BLOCK_CHARS
    check_scorefile(path)
    assert [r.group for r in evaluate_scorefile(path)][-2:] == ["Z", "ALL"]


@pytest.mark.parametrize("zeros, threshold", [
    (["-0", "0", "0"], "-0"),  # the file's first zero is -0
    (["0", "0", "-0"], "-0"),  # its last
    (["0", "0.0", "+0"], "0"),
    (["-0.0", "-0", "-0e1"], "-0"),
])
def test_signed_zero_threshold(tmp_path, zeros, threshold):
    """A zero threshold prints as -0 when any trial of the group scores -0,
    wherever that trial is, and as 0 otherwise."""
    path = tmp_path / "s.tsv"
    base = ["A\tbonafide\t%s" % zeros[0], "A\tbonafide\t%s" % zeros[1], "A\tspoof\t-1",
            "A\tbonafide\t1", "A\tspoof\t%s" % zeros[2]]
    lines = ["t%d\t%s" % (i, row) for i, row in enumerate(base * 8)]  # past a sort's small cases
    write_text(path, lines)
    check_scorefile(path)
    assert report_bytes(evaluate_scorefile(path)).splitlines()[1:] == [
        "A,24,16,0.25,%s" % threshold, "ALL,24,16,0.25,%s" % threshold]


def test_signed_zero_report(tmp_path):
    path = tmp_path / "s.tsv"
    write_text(path, ["t0\tA\tbonafide\t-0", "t1\tA\tbonafide\t0", "t2\tA\tspoof\t-1",
                      "t3\tA\tbonafide\t1", "t4\tA\tspoof\t0"])
    check_scorefile(path)
    assert report_bytes(evaluate_scorefile(path)) == (
        "group,n_pos,n_neg,eer,threshold\r\nA,3,2,0.25,-0\r\nALL,3,2,0.25,-0\r\n")


# ---------------------------------------------------------------- trial lists

TRIAL_FAULTS = {
    "fields": "a\tb\tpositive",
    "label": "a\tb\tsame\tR",
    "category": "a\tb\tnegative\tXYZ",
    "contradiction": "a\tb\tnegative\tR",
}


def good_trial_line(i):
    cat = CATEGORIES[i % len(CATEGORIES)]
    return "u%d\tu%d\t%s\t%s" % (i, i + 1, "positive" if cat in ("R", "IAB") else "negative", cat)


@given(
    n=st.integers(0, 25),
    blanks=st.lists(st.tuples(st.integers(0, 25), st.sampled_from(BLANKS)), max_size=4),
    newline=st.sampled_from(["\n", "\r\n"]),
    fault=st.one_of(st.none(), st.tuples(st.integers(0, 25), st.sampled_from(sorted(TRIAL_FAULTS)))),
)
@settings(max_examples=30, deadline=None)
def test_trials_match_loop(n, blanks, newline, fault):
    lines = [good_trial_line(i) for i in range(n)]
    if fault is not None:
        lines.insert(min(fault[0], len(lines)), TRIAL_FAULTS[fault[1]])
    for pos, blank in sorted(blanks, reverse=True):
        lines.insert(min(pos, len(lines)), blank)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tsv")
        write_text(path, lines, newline)
        check_trials(path, d)


@pytest.mark.parametrize("kind", sorted(TRIAL_FAULTS))
@pytest.mark.parametrize("pos", [0, 6, 12, PAST_ONE_BLOCK])
def test_trials_fault_parity(tmp_path, kind, pos):
    path = tmp_path / "t.tsv"
    lines = faulty_file(good_trial_line, {pos: TRIAL_FAULTS[kind]}, n=max(12, pos))
    assert pos < PAST_ONE_BLOCK or line_start(lines, lines.index(TRIAL_FAULTS[kind])) > BLOCK_CHARS
    write_text(path, lines)
    check_trials(path, tmp_path)
    with pytest.raises(ParseError) as e:
        load_trials(path)
    assert e.value.line == lines.index(TRIAL_FAULTS[kind]) + 1


# ---------------------------------------------------------------- scoring


def all_pairs(utts, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for a, b in itertools.combinations(sorted(utts), 2):
        cat = CATEGORIES[rng.integers(len(CATEGORIES))]
        pairs.append(TrialPair(a, b, "positive" if cat in ("R", "IAB") else "negative", cat))
    return trial_set(pairs)


@given(
    dim=st.integers(1, 70),
    n=st.integers(2, 9),
    seed=st.integers(0, 2**16),
    coarse=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_scoring_matches_loop(dim, n, seed, coarse):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
    if coarse:  # repeated vectors and small integers: ties and exact +-1 cosines
        vecs = np.round(vecs[rng.integers(0, n, n)])
    vectors = {"u%d" % i: v.copy() for i, v in enumerate(vecs)}
    with tempfile.TemporaryDirectory() as d:
        check_scoring(all_pairs(vectors, seed), vectors, d)


def test_scoring_past_one_chunk(tmp_path):
    """More pairs than a chunk, over utterances that some pairs leave out."""
    rng = np.random.default_rng(3)
    vectors = {"a%03d" % i: rng.normal(size=64) for i in range(130)}
    ts = all_pairs(list(vectors)[:100], 1)
    assert len(ts) > CHUNK_PAIRS
    new = check_scoring(ts, vectors, tmp_path)
    assert new[0] == "ok"


@pytest.mark.parametrize("chunk", [1, 3])
def test_scoring_in_small_chunks(tmp_path, monkeypatch, chunk):
    """Chunks of one pair and of three, the last one short: every score is
    cosine_score's of its pair, and the file the loop's."""
    monkeypatch.setattr(trials, "CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(5)
    vectors = {"u%02d" % i: rng.normal(size=17) * 10.0 ** rng.integers(-3, 4) for i in range(11)}
    ts = all_pairs(vectors, 2)
    assert len(ts) % 3 == 1
    new = check_scoring(ts, vectors, tmp_path)
    assert new[0] == "ok"
    assert new[1].scores.tolist() == [cosine_score(vectors[p.utt_a], vectors[p.utt_b])
                                      for p in ts]


def test_scoring_tiny_vectors(tmp_path):
    """Vectors whose squared norms underflow score like cosine_score's."""
    vectors = {"a": np.array([0.0, 1.5e-161]), "b": np.array([1e-160, 1.5e-161]),
               "c": np.array([1.0, 2.0]), "d": np.array([3e-170, -2e-162])}
    new = check_scoring(all_pairs(vectors, 0), vectors, tmp_path)
    assert new[0] == "ok"


SCORING_FAULTS = {
    "missing-a": ("ya", "m0"),  # ya has no embedding
    "missing-b": ("m0", "zb"),  # nor has zb
    "zero": ("z0", "z1"),  # z1 is all zeros
}


@pytest.mark.parametrize("order", list(itertools.permutations(sorted(SCORING_FAULTS))))
def test_scoring_first_fault_fires(tmp_path, order):
    vectors = {
        "m0": np.array([1.0, 2.0, 3.0]),
        "z0": np.array([0.0, 1.0, 0.0]),
        "z1": np.zeros(3),
        "g0": np.array([1.0, 1.0, 0.0]),
        "g1": np.array([0.0, 1.0, 1.0]),
    }
    pairs = [TrialPair("g0", "g1", "positive", "R")]
    for kind in order:
        pairs += [TrialPair(*SCORING_FAULTS[kind], "negative", "RI"), pairs[0]]
    new = check_scoring(trial_set(pairs), vectors, tmp_path)
    want = {"missing-a": (MissingEmbedding, "ya"), "missing-b": (MissingEmbedding, "zb"),
            "zero": (ZeroVector, "cosine undefined for a zero vector")}[order[0]]
    assert new[:3] == ("raised", *want)


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("zz", "z1", MissingEmbedding),  # missing before a zero vector
        ("z1", "zz", MissingEmbedding),  # on either side of the pair
        ("ya", "zz", MissingEmbedding),  # both missing: side a is named
    ],
)
def test_scoring_faults_in_one_pair(tmp_path, a, b, want):
    vectors = {"z1": np.zeros(3)}
    ts = trial_set([TrialPair(a, b, "negative", "TI")])
    new = check_scoring(ts, vectors, tmp_path)
    assert new[:2] == ("raised", want)


# ---------------------------------------------------------------- chunk edges


def random_table(rng, good, faults):
    """good rows with blank lines, maybe one fault, mixed line ends and maybe
    no final one, as bytes."""
    lines = [good(i) for i in range(rng.choice([0, 1, 5, 30]))]
    if rng.random() < 0.5:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(faults))
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(BLANKS))
    ends = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return (text if rng.random() < 0.7 else text.rstrip("\r\n")).encode()


@pytest.mark.parametrize("chars", [1, 5, 32])
def test_tables_at_chunk_edges(tmp_path, monkeypatch, chars):
    """Score files and trial lists against the loops with chunks so small that
    blocks end inside rows, blank lines and line ends, and faults lie in
    later blocks."""
    monkeypatch.setattr(tsv, "BLOCK_CHARS", chars)
    path = tmp_path / "t.tsv"
    for seed in range(120):
        rng = random.Random(seed)
        path.write_bytes(random_table(rng, good_score_line, sorted(SCORE_FAULTS.values())))
        check_scorefile(path)
        path.write_bytes(random_table(rng, good_trial_line, sorted(TRIAL_FAULTS.values())))
        check_trials(path, tmp_path)


def straddling(good, fault, n, boundary):
    """n good lines with one replaced by fault, its trial id padded so that it
    holds character offset boundary of the file or starts at it; and that
    line's index."""
    lines = [good(i) for i in range(n)]
    k = next(k for k in range(n) if line_start(lines, k + 1) > boundary)
    lines[k] = "x" * max(0, len(lines[k]) - len(fault)) + fault
    assert line_start(lines, k) <= boundary < line_start(lines, k + 1)
    return lines, k


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("kind", sorted(SCORE_FAULTS))
def test_scorefile_fault_across_a_later_block_edge(tmp_path, kind, block):
    """A faulty row that a later block edge cuts in two is reported at its line."""
    path = tmp_path / "s.tsv"
    lines, k = straddling(good_score_line, SCORE_FAULTS[kind], 4 * BLOCK_CHARS // 20,
                          (block - 1) * BLOCK_CHARS)
    write_text(path, lines, "\r\n")
    check_scorefile(path)
    with pytest.raises(ParseError) as e:
        parse_scorefile(path)
    assert e.value.line == k + 1


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("kind", sorted(TRIAL_FAULTS))
def test_trials_fault_across_a_later_block_edge(tmp_path, kind, block):
    path = tmp_path / "t.tsv"
    lines, k = straddling(good_trial_line, TRIAL_FAULTS[kind], 4 * BLOCK_CHARS // 20,
                          (block - 1) * BLOCK_CHARS)
    write_text(path, lines)
    check_trials(path, tmp_path)
    with pytest.raises(ParseError) as e:
        load_trials(path)
    assert e.value.line == k + 1


def test_score_line_longer_than_a_chunk(tmp_path):
    path = tmp_path / "s.tsv"
    lines = [good_score_line(i) for i in range(8)]
    lines[3] = "t" * (2 * BLOCK_CHARS) + lines[3]
    write_text(path, lines, "\r\n", trailing=False)
    check_scorefile(path)


# each a way to replace every trial id of a score file: with empty ids, with
# non-ASCII ids, and with ids of which one is longer than a read block
NEW_TRIAL_IDS = {
    "empty": lambda k: "",
    "non-ascii": lambda k: "\u00fc%d\u00b7\u03a9" % k,
    "long": lambda k: "t" * (2 * BLOCK_CHARS) if k == 3 else "u%d" % k,
}


@pytest.mark.parametrize("ids", sorted(NEW_TRIAL_IDS))
def test_eval_reads_no_trial_ids(tmp_path, ids):
    """evaluate_scorefile writes the same report bytes, EER and min t-DCF,
    for a file and for a copy of it with every trial id replaced."""
    lines = [good_score_line(i) for i in range(40)]
    renamed = [NEW_TRIAL_IDS[ids](k) + line[line.index("\t"):] for k, line in enumerate(lines)]
    assert all(a.split("\t")[0] != b.split("\t")[0] for a, b in zip(lines, renamed))
    write_text(tmp_path / "a.tsv", lines)
    write_text(tmp_path / "b.tsv", renamed)
    for cost in (None, COST):
        report = report_bytes(evaluate_scorefile(tmp_path / "a.tsv", cost))
        assert report_bytes(evaluate_scorefile(tmp_path / "b.tsv", cost)) == report


# one faulty row in the middle of a block of valid rows, for each way a row
# can pass the block's field-count test and fail a whole-block check:
# (line, the message after "<path> line <N>: ")
ONE_FAULT_IN_A_BLOCK = {
    "label": ("bad\tA01\tTarget\t1.0", "unknown label 'Target'"),
    "score-nan": ("bad\tA01\tspoof\tnan", "non-finite score"),
    "score-inf": ("bad\t-\tbonafide\t-inf", "non-finite score"),
    "score-overflow": ("bad\tA01\tspoof\t1e400", "non-finite score"),
    "score-text": ("bad\tA01\tspoof\tabc", "bad score 'abc'"),
    "score-digit-group": ("bad\tA01\tspoof\t1_0", "bad score '1_0'"),
    "score-other-script": ("bad\tA01\tspoof\t2\u0661", "bad score '2\u0661'"),
    "score-other-space": ("bad\tA01\tspoof\t\u20031", "bad score '\\u20031'"),  # as repr shows it
    "group-pooled": ("bad\tALL\tspoof\t1.0", "group name 'ALL' is reserved for the pooled row"),
}
ONE_TRIAL_FAULT_IN_A_BLOCK = {
    "positive-negative-category": ("a\tb\tpositive\tRI", "label 'positive' contradicts category 'RI'"),
    "negative-positive-category": ("a\tb\tnegative\tIAB",
                                   "label 'negative' contradicts category 'IAB'"),
    "category": ("a\tb\tnegative\tR1", "unknown category 'R1'"),
    "label": ("a\tb\tnegatives\tRI", "unknown label 'negatives'"),
}


def one_fault_in_a_block(good, fault):
    """Rows filling two blocks, with fault in the middle of the second."""
    lines = [good(i) for i in range(2 * BLOCK_CHARS // 20)]
    k = next(k for k in range(len(lines)) if line_start(lines, k) > 1.5 * BLOCK_CHARS)
    lines[k] = fault
    return lines, k + 1


@pytest.mark.parametrize("kind", sorted(ONE_FAULT_IN_A_BLOCK))
def test_one_faulty_row_in_a_valid_block(tmp_path, kind):
    path = tmp_path / "s.tsv"
    fault, message = ONE_FAULT_IN_A_BLOCK[kind]
    lines, lineno = one_fault_in_a_block(good_score_line, fault)
    write_text(path, lines)
    check_scorefile(path)
    for run in (parse_scorefile, evaluate_scorefile):
        with pytest.raises(ParseError) as e:
            run(path)
        assert (type(e.value), str(e.value), e.value.line) == (
            ParseError, "%s line %d: %s" % (path, lineno, message), lineno)


@pytest.mark.parametrize("kind", sorted(ONE_TRIAL_FAULT_IN_A_BLOCK))
def test_one_faulty_trial_in_a_valid_block(tmp_path, kind):
    path = tmp_path / "t.tsv"
    fault, message = ONE_TRIAL_FAULT_IN_A_BLOCK[kind]
    lines, lineno = one_fault_in_a_block(good_trial_line, fault)
    write_text(path, lines)
    check_trials(path, tmp_path)
    with pytest.raises(ParseError) as e:
        load_trials(path)
    assert (type(e.value), str(e.value), e.value.line) == (
        ParseError, "%s line %d: %s" % (path, lineno, message), lineno)


@pytest.mark.parametrize("first, second", [(3, 5), (5, 3), (2, 6), (1, 7)])
def test_field_counts_that_cancel_in_one_block(tmp_path, first, second):
    """Two faulty rows whose fields add up to four a row over the block: the
    first is reported, at its line."""
    def row(nfields):
        return "\t".join(["bad", "A01", "spoof", "1.0", "x", "y", "z"][:nfields])
    path = tmp_path / "s.tsv"
    write_text(path, faulty_file(good_score_line, {3: row(first), 8: row(second)}))
    check_scorefile(path)
    trials = tmp_path / "t.tsv"
    write_text(trials, faulty_file(good_trial_line, {3: row(first), 8: row(second)}))
    check_trials(trials, tmp_path)
    for load, where in ((parse_scorefile, path), (load_trials, trials)):
        with pytest.raises(ParseError) as e:
            load(where)
        assert e.value.line == 4 + 2  # after two blank lines
