"""EER and minimum normalized t-DCF via exhaustive threshold sweeps.

Acceptance rule everywhere: a trial is accepted iff score >= threshold.
Candidate thresholds are the distinct observed scores plus +inf (reject
all); every achievable operating point appears in that sweep.
"""

import csv
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLabels, IllPosedCostModel
from .tsv import isin, names_file, parse_floats, raise_first, read_lines, split_columns

POSITIVE_LABELS = frozenset(("target", "bonafide"))
NEGATIVE_LABELS = frozenset(("nontarget", "spoof"))
LABELS = POSITIVE_LABELS | NEGATIVE_LABELS
POOLED = "ALL"  # the report row over every trial; no score-file group may take its name


@dataclass(frozen=True)
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
    i = int(np.argmin(np.abs(far - frr)))
    return EerResult(eer=float((far[i] + frr[i]) / 2.0), threshold=float(t[i]))


@dataclass(frozen=True)
class TdcfResult:
    min_tdcf_norm: float
    threshold: float


def min_tdcf(cm, cost):
    """Minimum of (C1 P_miss + C2 P_fa) / min(C1, C2) over all thresholds."""
    c1, c2 = cost.coefficients()
    t, far, frr = cm.sweep  # far = spoof accepted, frr = bonafide rejected
    tdcf = (c1 * frr + c2 * far) / min(c1, c2)
    i = int(np.argmin(tdcf))
    return TdcfResult(min_tdcf_norm=float(tdcf[i]), threshold=float(t[i]))


@dataclass(frozen=True)
class GroupReport:
    group: str
    n_pos: int
    n_neg: int
    eer: float
    threshold: float
    min_tdcf: float = None


@dataclass(frozen=True)
class ScoreTable:
    """A score file as columns, one entry per row in file order.

    Iterating yields the rows as (trial_id, group, label, score).
    """

    trial_ids: list
    groups: list
    labels: list  # one of POSITIVE_LABELS | NEGATIVE_LABELS
    scores: np.ndarray  # float64

    def __len__(self):
        return len(self.scores)

    def __iter__(self):
        return zip(self.trial_ids, self.groups, self.labels, self.scores.tolist())


@names_file
def parse_scorefile(path):
    """ScoreTable of a trial_id<TAB>group<TAB>label<TAB>score file.

    Group '-' marks ungrouped rows; 'ALL' is reserved for the pooled report
    row.  A faulty line raises ParseError for the first such line, checked
    in the order field count, label, score, finiteness, group name.
    """
    ids, groups, labels, scores = [], [], [], [np.zeros(0)]
    for linenos, (trial_id, group, label, score_text) in split_columns(
        read_lines(path), 4, "expected 4 tab-separated fields"
    ):
        values, rejected = parse_floats(score_text)  # a rejected text parses to NaN
        if not (set(label) <= LABELS and np.isfinite(values).all() and POOLED not in group):
            raise_first(linenos, [
                (~isin(label, LABELS), lambda i: "unknown label %r" % label[i]),
                (rejected, lambda i: "bad score %r" % score_text[i]),
                (~np.isfinite(values), lambda i: "non-finite score"),
                (isin(group, {POOLED}),
                 lambda i: "group name %r is reserved for the pooled row" % POOLED),
            ])
        ids += trial_id
        groups += map(sys.intern, group)  # one string per distinct group or label, not per row
        labels += map(sys.intern, label)
        scores.append(values)
    return ScoreTable(ids, groups, labels, np.concatenate(scores))


def evaluate_scorefile(path, cost=None):
    """Per-group and pooled metrics: the EER, and the min t-DCF under cost
    when a CostModel is given.

    Ungrouped rows (group '-') are shared into every named group, mirroring
    protocols where one bonafide set is reused against each attack; the ALL
    row pools everything.  A group's trials are its own rows, then the
    shared ones, each in file order.  A file without trials, or a group
    whose trials are all positive or all negative, raises DegenerateLabels
    naming the file, and the group with its counts.
    """
    table = parse_scorefile(path)
    positive = isin(table.labels, POSITIVE_LABELS)
    code = {g: k for k, g in enumerate(sorted(set(table.groups) | {"-"}))}
    codes = np.fromiter(map(code.__getitem__, table.groups), np.intp, len(table))
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
        s = ScoreSet(scores=table.scores[members], labels=labels)
        e = eer(s)
        td = min_tdcf(s, cost).min_tdcf_norm if cost is not None else None
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
