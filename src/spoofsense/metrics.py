"""EER and minimum normalized t-DCF via exhaustive threshold sweeps.

Acceptance rule everywhere: a trial is accepted iff score >= threshold.
Candidate thresholds are the distinct observed scores plus +inf (reject
all); every achievable operating point appears in that sweep.  A sweep
takes its scores in total order, sorting them only if they are not yet,
and reads FAR and FRR off exact counts of the labels below each distinct
score; -0 sorts before 0, so a zero threshold is -0 when any trial scores
-0.

A score file is held as a ScoreTable: the trial ids, the group and label
columns coded (Column: the distinct names and an int32 code per row), and
the scores.  parse_scorefile checks each line's trial id field but keeps
no ids, since no metric reads them.  evaluate_scorefile sorts the file's
scores once in total order and takes every group's trials, and the pooled
row's, in that order, so that no sweep sorts again.
"""

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLabels, IllPosedCostModel
from .tsv import WRITE_ROWS, isin, names_file, parse_floats, raise_first, read_lines, split_columns

POSITIVE_LABELS = frozenset(("target", "bonafide"))
NEGATIVE_LABELS = frozenset(("nontarget", "spoof"))
LABELS = POSITIVE_LABELS | NEGATIVE_LABELS
POOLED = "ALL"  # the report row over every trial; no score-file group may take its name
# sweep points per slice of eer's and min_tdcf's read-outs: bounds their temporaries
SWEEP_SLICE = 1 << 15


@dataclass(frozen=True, eq=False)  # == and hash by identity: numpy fields
class ScoreSet:
    scores: np.ndarray
    labels: np.ndarray  # bool, True = positive class (target / bonafide)

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        l = np.asarray(self.labels, dtype=bool)
        if s.ndim != 1 or s.shape != l.shape:
            raise ValueError("scores and labels must be parallel 1-D sequences")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", l)

    @cached_property
    def sweep(self):
        """Thresholds (ascending, +inf last) with FAR/FRR at each; computed
        once per score set, however many metrics read it.

        Scores already in total order are read as they are; others are
        sorted once.  A threshold is the first of a run of equal scores, and
        the trials below it are counted from there.  A zero threshold is -0
        if any of the trials scores -0, since -0 sorts first.  FAR and FRR
        are exact integer counts divided once by the class sizes.
        """
        n_pos = int(self.labels.sum())
        n = len(self.labels)
        n_neg = n - n_pos
        if not (n_pos and n_neg):
            raise DegenerateLabels("need at least one positive and one negative trial")
        scores, labels = self.scores, self.labels
        keys = _total_order(scores)
        if not np.greater_equal(keys[1:], keys[:-1]).all():
            order = np.argsort(keys)
            scores, labels = scores[order], labels[order]
            del order
        del keys
        starts = np.empty(n + 1, bool)  # where each run of equal scores starts, then the end
        starts[0] = starts[n] = True
        np.not_equal(scores[1:], scores[:-1], out=starts[1:n])
        ends = np.flatnonzero(starts)  # the first index of each distinct score, then n
        del starts
        below = np.empty(n + 1, np.intp)  # below[i]: the positives among the first i trials
        below[0] = 0
        np.cumsum(labels, out=below[1:])
        pos_below = below[ends]  # the positives below each threshold
        del below
        thresholds = np.empty(len(ends))
        np.take(scores, ends[:-1], out=thresholds[:-1])
        thresholds[-1] = np.inf
        ends -= pos_below  # the negatives below each threshold
        np.subtract(n_neg, ends, out=ends)  # and at or above it: the false accepts
        far = ends / n_neg
        del ends
        frr = pos_below / n_pos
        for a in (thresholds, far, frr):  # shared by every reader
            a.flags.writeable = False
        return thresholds, far, frr


def _total_order(scores):
    """int64 keys of float64 scores that sort as the scores do, with -0
    before 0 (IEEE 754 totalOrder), so that the order of the values a sort
    gives does not depend on the sort."""
    bits = scores.view(np.int64)
    keys = bits >> 63  # -1 where the sign bit is set: flip the other bits there
    keys &= np.int64(0x7FFFFFFFFFFFFFFF)
    keys ^= bits
    return keys


@dataclass(frozen=True)
class CostModel:
    p_target: float
    p_nontarget: float
    p_spoof: float
    c_miss_asv: float
    c_fa_asv: float
    c_miss_cm: float
    c_fa_cm: float
    p_miss_asv: float
    p_fa_asv: float
    p_miss_spoof_asv: float

    def __post_init__(self):
        priors = (self.p_target, self.p_nontarget, self.p_spoof)
        if min(priors) < 0 or abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError("priors must be nonnegative and sum to 1")
        if min(self.c_miss_asv, self.c_fa_asv, self.c_miss_cm, self.c_fa_cm) <= 0:
            raise ValueError("costs must be positive")
        for r in (self.p_miss_asv, self.p_fa_asv, self.p_miss_spoof_asv):
            if not 0.0 <= r <= 1.0:
                raise ValueError("ASV error rates must lie in [0, 1]")

    def coefficients(self):
        """(C1, C2): weights of the CM miss and false-alarm rates."""
        c1 = self.p_target * (self.c_miss_cm - self.c_miss_asv * self.p_miss_asv) \
            - self.p_nontarget * self.c_fa_asv * self.p_fa_asv
        c2 = self.c_fa_cm * self.p_spoof * (1.0 - self.p_miss_spoof_asv)
        if c1 <= 0 or c2 <= 0:
            raise IllPosedCostModel("cost model gives C1=%g, C2=%g" % (c1, c2))
        return c1, c2


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float


def eer(s):
    """EER as (FAR+FRR)/2 at the sweep point minimizing |FAR - FRR| (ties:
    smaller threshold)."""
    t, far, frr = s.sweep

    def gap(part):  # in place, so that one temporary of a slice is live
        g = far[part] - frr[part]
        return np.abs(g, out=g)

    i, _ = _first_min(len(t), gap)
    return EerResult(eer=float((far[i] + frr[i]) / 2.0), threshold=float(t[i]))


@dataclass(frozen=True)
class TdcfResult:
    min_tdcf_norm: float
    threshold: float


def min_tdcf(cm, cost):
    """Minimum of (C1 P_miss + C2 P_fa) / min(C1, C2) over all thresholds
    (ties: smaller threshold)."""
    c1, c2 = cost.coefficients()
    t, far, frr = cm.sweep  # far = spoof accepted, frr = bonafide rejected

    def tdcf(part):
        v = c1 * frr[part]  # (c1 * frr + c2 * far) / min(c1, c2), in place
        v += c2 * far[part]
        v /= min(c1, c2)
        return v

    i, value = _first_min(len(t), tdcf)
    return TdcfResult(min_tdcf_norm=float(value), threshold=float(t[i]))


def _first_min(n, values):
    """(i, v): the first index of the smallest of n sweep values, and v that
    value, where values(part) gives the values at the slice part of the
    sweep.  It is read SWEEP_SLICE points at a time, so that no temporary
    is as long as the sweep."""
    i, best = 0, None
    for lo in range(0, n, SWEEP_SLICE):
        v = values(slice(lo, lo + SWEEP_SLICE))
        k = int(np.argmin(v))
        if best is None or v[k] < best:  # an equal value later is no new minimum
            i, best = lo + k, v[k]
    return i, best


@dataclass(frozen=True)
class GroupReport:
    group: str
    n_pos: int
    n_neg: int
    eer: float
    threshold: float
    min_tdcf: float = None


@dataclass(frozen=True, eq=False)  # == and hash by identity: numpy fields
class Column:
    """A column of strings as its distinct names and one int32 code per row:
    row k holds names[codes[k]]."""

    names: tuple
    codes: np.ndarray

    @classmethod
    def of(cls, strings):
        """The Column of a sequence of strings."""
        code = {}
        codes = _encode(strings, code)
        return cls(tuple(code), codes)

    def renamed(self, rename):
        """The Column whose row k holds rename(name of row k); it names only
        what some row holds."""
        held = np.zeros(len(self.names), bool)
        held[self.codes] = True
        kept = np.flatnonzero(held)
        new = Column.of([rename(self.names[k]) for k in kept])
        lookup = np.zeros(len(self.names), np.int32)
        lookup[kept] = new.codes
        return Column(new.names, lookup[self.codes])

    def __iter__(self):
        """The rows' strings, one string object per distinct name, looked up
        WRITE_ROWS rows at a time."""
        names = np.array(self.names, dtype=object)
        for start in range(0, len(self.codes), WRITE_ROWS):
            yield from names[self.codes[start:start + WRITE_ROWS]].tolist()

    def mask(self, names):
        """Bool array: which rows hold one of names."""
        return np.array([n in names for n in self.names], bool)[self.codes]


def _encode(strings, code):
    """int32 codes of strings in code (name -> code), which first gets a new
    code for each name it lacks, in sorted order."""
    try:
        return np.fromiter(map(code.__getitem__, strings), np.int32, len(strings))
    except KeyError:
        for name in sorted(set(strings) - code.keys()):
            code[name] = len(code)
        return np.fromiter(map(code.__getitem__, strings), np.int32, len(strings))


@dataclass(frozen=True, eq=False)  # == and hash by identity: numpy fields
class ScoreTable:
    """A score file as columns, one entry per row in file order."""

    # an iterable of str with a len, which write_scorefile may read more than
    # once; None from parse_scorefile, which keeps no ids
    trial_ids: object
    groups: Column
    labels: Column  # names from POSITIVE_LABELS | NEGATIVE_LABELS
    scores: np.ndarray  # float64

    def __len__(self):
        return len(self.scores)


@names_file
def parse_scorefile(path):
    """ScoreTable of a trial_id<TAB>group<TAB>label<TAB>score file, without
    its trial ids (trial_ids is None).

    Group '-' marks ungrouped rows; 'ALL' is reserved for the pooled report
    row.  A faulty line raises ParseError for the first such line, checked
    in the order field count, label, score, finiteness, group name.
    """
    scores = [np.zeros(0)]
    group_code, label_code = {}, {}  # name -> code, in the order first seen
    group_codes, label_codes = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
    for linenos, (_, group, label, score_text) in split_columns(
        read_lines(path), 4, "expected 4 tab-separated fields"
    ):
        values, rejected = parse_floats(score_text)  # a rejected text parses to NaN
        # coded first, so that the dicts hold every name of the block
        group_codes.append(_encode(group, group_code))
        label_codes.append(_encode(label, label_code))
        if not (label_code.keys() <= LABELS and np.isfinite(values).all()
                and POOLED not in group_code):
            raise_first(linenos, [
                (~isin(label, LABELS), lambda i: "unknown label %r" % label[i]),
                (rejected, lambda i: "bad score %r" % score_text[i]),
                (~np.isfinite(values), lambda i: "non-finite score"),
                (isin(group, {POOLED}),
                 lambda i: "group name %r is reserved for the pooled row" % POOLED),
            ])
        scores.append(values)
    return ScoreTable(None,
                      Column(tuple(group_code), np.concatenate(group_codes)),
                      Column(tuple(label_code), np.concatenate(label_codes)),
                      np.concatenate(scores))


def evaluate_scorefile(path, cost=None):
    """Per-group and pooled metrics: the EER, and the min t-DCF under cost
    when a CostModel is given.

    Ungrouped rows (group '-') are shared into every named group, mirroring
    protocols where one bonafide set is reused against each attack; the ALL
    row pools everything.  The file's scores are sorted once in total order
    (-0 before 0), and each group's trials, its own rows and the shared
    ones, are taken in that order, so that no sweep sorts again.  A file
    without trials, or a group whose trials are all positive or all
    negative, raises DegenerateLabels naming the file, and the group
    with its counts.
    """
    table = parse_scorefile(path)
    names = table.groups.names
    order = np.argsort(_total_order(table.scores))  # each group's sweep reads it as it is
    scores = table.scores[order]
    positive = table.labels.mask(POSITIVE_LABELS)[order]
    shared = table.groups.mask({"-"})[order]
    codes = table.groups.codes[order]
    del table, order  # the file-order columns
    reports = []
    for group in sorted(set(names) - {"-"}):
        members = np.flatnonzero(shared | (codes == names.index(group)))
        reports.append(_group_report(path, group, scores[members], positive[members], cost))
    del shared, codes  # the pooled row's sweep sets the peak
    reports.append(_group_report(path, POOLED, scores, positive, cost))
    return reports


def _group_report(path, group, scores, labels, cost):
    """The GroupReport of one group's trials."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if not len(labels):
        raise DegenerateLabels("%s: no trials" % path)
    if not (n_pos and n_neg):
        raise DegenerateLabels("%s: group %s has %d positive and %d negative trials"
                               % (path, group, n_pos, n_neg))
    s = ScoreSet(scores=scores, labels=labels)
    e = eer(s)
    return GroupReport(
        group=group,
        n_pos=n_pos,
        n_neg=n_neg,
        eer=e.eer,
        threshold=e.threshold,
        min_tdcf=min_tdcf(s, cost).min_tdcf_norm if cost is not None else None,
    )


def write_report(reports, fh):
    w = csv.writer(fh)
    with_tdcf = any(r.min_tdcf is not None for r in reports)
    header = ["group", "n_pos", "n_neg", "eer", "threshold"]
    if with_tdcf:
        header.append("min_tdcf")
    w.writerow(header)
    for r in reports:
        row = [r.group, r.n_pos, r.n_neg, "%.12g" % r.eer, "%.12g" % r.threshold]
        if with_tdcf:
            row.append("%.12g" % r.min_tdcf)
        w.writerow(row)
