"""Dataset manifests, trial-pair construction, and embedding scoring.

RULES defines the pair categories.  Pairs are unordered, emitted once with
utt_a < utt_b lexicographically, sorted; construction is exhaustive over
qualifying combinations.  The rules run on int codes, not strings: each
utt_id is coded as its rank in sorted order and speaker and mimicked
target ids by one shared table, so a pair is sorted as two ints and its
ids are looked up once at the end.  A trial list is held as columns
(TrialSet), the way a score file is (metrics.ScoreTable); trial lists and
score files are written a chunk of rows at a time by tsv.write_rows.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import (
    DimMismatch,
    DuplicateUttId,
    EmptyCategory,
    MissingEmbedding,
    MissingMimickedTarget,
    ParseError,
    ZeroVector,
)
from .metrics import Column, ScoreTable
from .tsv import (
    isin,
    names_file,
    parse_floats,
    plain,
    raise_first,
    read_lines,
    split_columns,
    write_rows,
)

# the roles a manifest row may have -> the countermeasure class (0 bonafide, 1 spoof)
CLASS_OF_ROLE = {"bonafide": 0, "target-real": 0, "impersonator-real": 0,
                 "spoof": 1, "impersonation": 1}
ROLES = frozenset(CLASS_OF_ROLE)

# category -> (role of a, role of b, rule on the rows a and b); a pair of one
# role is any two of its rows, a pair of two roles one row of each.  A rule
# gets each role's columns as arrays, a's shaped (n, 1) and b's (1, m)
RULES = {
    # (+) real utterance pairs of one target speaker
    "R": ("target-real", "target-real", lambda a, b: a.speaker_id == b.speaker_id),
    # (-) real target utterances across different speakers
    "RI": ("target-real", "target-real", lambda a, b: a.speaker_id != b.speaker_id),
    # (+) one impersonator mimicking two different targets
    "IAB": ("impersonation", "impersonation",
            lambda a, b: (a.speaker_id == b.speaker_id)
            & (a.mimicked_target_id != b.mimicked_target_id)),
    # (-) a target's real utterance vs an impersonation of that target
    "TI": ("target-real", "impersonation", lambda t, i: i.mimicked_target_id == t.speaker_id),
    # (-) impersonators' own voices across different impersonators
    "IRAB": ("impersonator-real", "impersonator-real",
             lambda a, b: a.speaker_id != b.speaker_id),
    # (-) an impersonator's own voice vs a target's real voice
    "IRT": ("impersonator-real", "target-real", lambda a, b: True),
}
CATEGORIES = tuple(RULES)
POSITIVE_CATEGORIES = frozenset(("R", "IAB"))
# the (label, category) of every valid trial-list row
TRIAL_ROWS = frozenset(("positive" if c in POSITIVE_CATEGORIES else "negative", c)
                       for c in CATEGORIES)

REQUIRED_COLUMNS = ("utt_id", "speaker_id", "role", "path")
OPTIONAL_COLUMNS = ("mimicked_target_id", "attack_id")


ManifestRow = namedtuple(
    "ManifestRow",
    "utt_id speaker_id role path mimicked_target_id attack_id",
    defaults=(None, None),
)


@dataclass(frozen=True)
class Manifest:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen = set()
        for r in self.rows:
            if r.utt_id in seen:
                raise DuplicateUttId("duplicate utt_id %r" % r.utt_id)
            seen.add(r.utt_id)

    def __len__(self):
        return len(self.rows)


@names_file
def load_manifest(path):
    """Rows checked in the order field count, role, mimicked_target_id, utt_id
    (it names files: non-empty, no '/'), then duplicate utt_ids over all rows."""
    lines = read_lines(path, header=True)
    head = next(lines)
    if head is None:
        raise ParseError("empty manifest", line=1)
    header = head.split("\t")
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise ParseError("missing column %r" % col, line=1)
    for i, col in enumerate(header):
        if col not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS:
            raise ParseError("unknown column %r" % col, line=1)
        if col in header[:i]:
            raise ParseError("duplicate column %r" % col, line=1)

    rows, numbers = [], []
    message = "expected %d fields, got {got}" % len(header)
    for linenos, columns in split_columns(lines, len(header), message):
        rec = dict(zip(header, columns))
        utt, role = rec["utt_id"], rec["role"]
        mim, attack = ([None if s in ("", "-") else s for s in rec.get(col, [""] * len(utt))]
                       for col in OPTIONAL_COLUMNS)  # "-" or empty: absent
        impersonation, absent = isin(role, {"impersonation"}), isin(mim, {None})
        raise_first(linenos, [
            (~isin(role, ROLES), lambda i: "unknown role %r" % role[i]),
            (impersonation & absent,
             lambda i: MissingMimickedTarget(
                 "impersonation row %s has no mimicked_target_id" % utt[i], linenos[i])),
            (~impersonation & ~absent,
             lambda i: "mimicked_target_id only belongs on impersonation rows"),
            (np.array([not u or "/" in u for u in utt], bool),
             lambda i: "utt_id %r must be non-empty and hold no '/'" % utt[i]),
        ])
        rows += map(ManifestRow, utt, rec["speaker_id"], role, rec["path"], mim, attack)
        numbers += linenos
    seen = set()  # set.add gives None, so a first sighting is false
    raise_first(numbers, [(np.array([r.utt_id in seen or seen.add(r.utt_id) for r in rows], bool),
                           lambda i: DuplicateUttId("duplicate utt_id %r" % rows[i].utt_id,
                                                    numbers[i]))])
    return Manifest(rows=rows)


TrialPair = namedtuple("TrialPair", "utt_a utt_b label category")  # label: positive | negative
CodedRows = namedtuple("CodedRows", "utt_id speaker_id role mimicked_target_id")  # what RULES read


@dataclass(frozen=True)
class TrialSet:
    """A trial list as columns, one entry per trial; iterating yields TrialPair rows."""

    utt_a: list
    utt_b: list
    labels: list  # positive | negative
    categories: list

    def __len__(self):
        return len(self.utt_a)

    def __iter__(self):
        return map(TrialPair, *_columns(self))


def _columns(ts):
    return ts.utt_a, ts.utt_b, ts.labels, ts.categories


def _coded_rows(manifest):
    """The manifest's columns as CodedRows arrays, one entry per row, and
    its utt_ids in sorted order as an object array.

    utt_id holds each id's rank in that order, which orders pairs as the
    ids do, since a manifest's ids are unique; speaker_id and
    mimicked_target_id hold codes from one table, so that two entries of
    either column have equal codes iff they are equal (an absent target,
    None, has a code of its own).  role holds the role strings.
    """
    rows = manifest.rows
    ids = Column.of([r.utt_id for r in rows])  # codes in sorted order: the ranks
    code = {}  # name -> code; setdefault gives a new name the next code
    speaker = np.array([code.setdefault(r.speaker_id, len(code)) for r in rows], np.intp)
    target = np.array([code.setdefault(r.mimicked_target_id, len(code)) for r in rows], np.intp)
    role = np.array([r.role for r in rows], dtype=object)
    return CodedRows(ids.codes, speaker, role, target), np.array(ids.names, dtype=object)


def _role_grid(coded, role, shape):
    """coded's rows of one role, each column reshaped to shape, so that a
    rule on two such grids broadcasts."""
    keep = np.flatnonzero(coded.role == role)
    return CodedRows._make(col[keep].reshape(shape) for col in coded)


def _ranked_pairs(coded, category):
    """category's pairs as two arrays of utt_id ranks, lo < hi in each
    pair, ordered by lo, then hi."""
    role_a, role_b, rule = RULES[category]
    a = _role_grid(coded, role_a, (-1, 1))
    b = _role_grid(coded, role_b, (1, -1))
    keep = np.broadcast_to(rule(a, b), (a.utt_id.size, b.utt_id.size))
    if role_a == role_b:  # any two rows of one role: row i with each row j > i
        keep = np.triu(keep, 1)
    i, j = np.nonzero(keep)
    ra, rb = a.utt_id[i, 0], b.utt_id[0, j]
    lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


def _trial_set(manifest, categories):
    """The TrialSet of the pairs of each of categories in turn; a category
    without pairs adds none.  The manifest is coded once for all of them."""
    coded, ids = _coded_rows(manifest)
    lo, hi, labels, cats = [], [], [], []
    for cat in categories:
        a, b = _ranked_pairs(coded, cat)
        lo.append(a)
        hi.append(b)
        labels += ["positive" if cat in POSITIVE_CATEGORIES else "negative"] * a.size
        cats += [cat] * a.size
    return TrialSet(ids[np.concatenate(lo)].tolist(), ids[np.concatenate(hi)].tolist(),
                    labels, cats)


def build_pairs(manifest, category):
    if category not in RULES:
        raise ValueError("unknown category %r" % category)
    ts = _trial_set(manifest, [category])
    if not len(ts):
        raise EmptyCategory("no qualifying pairs for category %s" % category)
    return ts


def build_all_pairs(manifest):
    """Every category that has qualifying pairs, in canonical order."""
    ts = _trial_set(manifest, CATEGORIES)
    if not len(ts):
        raise EmptyCategory("no category has qualifying pairs")
    return ts


def sample_pairs(ts, n, seed=0):
    """Seeded down-sample to n pairs, keeping the original ordering."""
    if n >= len(ts):
        return ts
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(ts), size=n, replace=False)).tolist()
    return TrialSet(*([col[i] for i in idx] for col in _columns(ts)))


def save_trials(path, ts):
    write_rows(path, _columns(ts))


@names_file
def load_trials(path):
    """The TrialSet of a trial-list file.  Each distinct field value is one
    str object, shared by every entry that holds it: a list of many trials
    over a few hundred utterances repeats nearly all its ids."""
    columns = ([], [], [], [])
    names = {}  # value -> its one str; setdefault adds a new one
    for linenos, (a, b, label, cat) in split_columns(read_lines(path), 4, "expected 4 fields"):
        if not set(zip(label, cat)) <= TRIAL_ROWS:  # the block holds a faulty row
            raise_first(linenos, [
                (~isin(label, ("positive", "negative")), lambda i: "unknown label %r" % label[i]),
                (~isin(cat, CATEGORIES), lambda i: "unknown category %r" % cat[i]),
                (isin(label, {"positive"}) != isin(cat, POSITIVE_CATEGORIES),
                 lambda i: "label %r contradicts category %r" % (label[i], cat[i])),
            ])
        for col, part in zip(columns, (a, b, label, cat)):
            col += map(names.setdefault, part, part)
    return TrialSet(*columns)


@dataclass(frozen=True)
class Embeddings:
    """An embedding file as columns: ids in file order, and vectors, one
    (len(ids), dim) float64 matrix whose row k is ids[k]'s embedding."""

    ids: list
    vectors: np.ndarray


@names_file
def load_embeddings(path):
    """A dim=<d> line, then utt_id<TAB>values rows, values split at any whitespace;
    rows checked in the order tab, repeated utt_id, numeric, count, finite."""
    lines = read_lines(path, header=True)
    head = next(lines) or ""  # an empty file has no line 1
    if not head.startswith("dim="):
        raise ParseError("embedding file must start with dim=<d>", line=1)
    try:
        if not plain(head):
            raise ValueError(head)
        dim = int(head[4:])
    except ValueError:
        raise ParseError("bad dimension %r" % head, line=1) from None
    if dim < 1:
        raise ParseError("dimension must be >= 1", line=1)

    ids, values = {}, [np.zeros(0)]  # ids: an ordered set of the utt_ids
    for linenos, rows in lines:
        parts = [row.partition("\t") for row in rows]
        utt = [p[0] for p in parts]
        tokens = [p[2].split() for p in parts]
        counts = np.fromiter(map(len, tokens), np.intp, len(rows))
        block, rejected = parse_floats(list(chain.from_iterable(tokens)))
        owner = np.repeat(np.arange(len(rows)), counts)  # the row of each value
        raise_first(linenos, [
            (np.array([not p[2] for p in parts], bool), lambda i: "expected utt_id<TAB>values"),
            # an id seen before is repeated; ids.setdefault adds a new one
            (np.array([u in ids or ids.setdefault(u) for u in utt], bool),
             lambda i: DuplicateUttId("duplicate utt_id %r" % utt[i], linenos[i])),
            (np.bincount(owner, rejected, len(rows)) > 0, lambda i: "non-numeric embedding value"),
            (counts != dim, lambda i: "expected %d values, got %d" % (dim, counts[i])),
            (np.bincount(owner, ~np.isfinite(block), len(rows)) > 0,
             lambda i: "non-finite embedding value"),
        ])
        values.append(block)
    # so wide that no float64 array has rows this long; every row, if any,
    # has failed the count check above, so the file has none
    if dim > np.iinfo(np.intp).max // 8:
        raise ParseError("dimension %d exceeds any array's size" % dim, line=1)
    return Embeddings(list(ids), np.concatenate(values).reshape(len(ids), dim))


def _rescaled(v):
    """v as float64, each vector along the last axis scaled by a power of two
    so that its largest |element| is in [0.5, 1).

    The scaling is exact and cancels in a cosine, so normal-range vectors score
    bit for bit as unscaled; it keeps the squared norm of a tiny vector (say
    [0, 1.5e-161]) from underflowing into subnormals and losing precision.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return v
    return np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=-1, keepdims=True))[1])


def cosine_score(a, b):
    a = _rescaled(a)
    b = _rescaled(b)
    if a.shape != b.shape:
        raise DimMismatch("vectors of dim %d vs %d" % (a.size, b.size))
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


CHUNK_PAIRS = 1024  # pairs per stacked matmul: bounds the gathered (pairs x dim) copies


@dataclass(frozen=True)
class TrialIds:
    """The trial-id column of a TrialSet's ScoreTable: row k is
    "utt_a[k]:utt_b[k]", joined as it is read, so that no id string is kept.
    It can be read any number of times."""

    utt_a: list
    utt_b: list

    def __len__(self):
        return len(self.utt_a)

    def __iter__(self):
        return map(":".join, zip(self.utt_a, self.utt_b))


def score_trials(ts, emb):
    """ScoreTable: one cosine score per pair, in pair order.

    Negative categories keep their category as the score-file group;
    positive pairs get the shared group '-' so that every attack
    category is evaluated against the common pool of genuine pairs.
    The first pair with a missing embedding or a zero vector raises.
    """
    vectors = _rescaled(emb.vectors)
    # each row's norm as cosine_score takes it; a row-wise norm sums in
    # another order.  A missing id maps to the extra zero norm at the end
    norms = np.array([np.linalg.norm(v) for v in vectors] + [0.0])
    row = dict(zip(emb.ids, range(len(emb.ids))))
    ia = np.fromiter(map(row.get, ts.utt_a, repeat(-1)), np.intp, len(ts))
    ib = np.fromiter(map(row.get, ts.utt_b, repeat(-1)), np.intp, len(ts))
    zero = norms == 0.0
    faulty = np.flatnonzero(zero[ia] | zero[ib])
    if faulty.size:
        k = faulty[0]
        for utt in (ts.utt_a[k], ts.utt_b[k]):
            if utt not in row:
                raise MissingEmbedding(utt)
        raise ZeroVector("cosine undefined for a zero vector")

    # The dot products come from one stacked (1 x d) @ (d x 1) matmul per
    # chunk of pairs, which numpy computes with the dot kernel np.dot uses,
    # so every score equals cosine_score's bit for bit (tests hold the two
    # equal).  np.einsum sums in another order and is not exact.
    scores = np.empty(len(ts))
    for start in range(0, len(ts), CHUNK_PAIRS):
        i, j = ia[start:start + CHUNK_PAIRS], ib[start:start + CHUNK_PAIRS]
        dots = np.matmul(vectors[i][:, None, :], vectors[j][:, :, None])[:, 0, 0]
        scores[start:start + CHUNK_PAIRS] = np.clip(dots / (norms[i] * norms[j]), -1.0, 1.0)
    del ia, ib

    # a category's code for a negative trial, one code past them for a
    # positive one, which renamed names '-'
    cats = Column.of(ts.categories)
    cats.codes[isin(ts.labels, {"positive"})] = len(cats.names)
    groups = Column(cats.names + (None,), cats.codes).renamed(
        lambda cat: "-" if cat is None else cat)
    return ScoreTable(
        trial_ids=TrialIds(ts.utt_a, ts.utt_b),
        groups=groups,
        labels=groups.renamed(lambda group: "target" if group == "-" else "nontarget"),
        scores=scores,
    )


def write_scorefile(path, table):
    """Write table as a score file; its columns must be of one length.

    The group and label names are looked up a chunk of rows at a time and
    the scores formatted as they are written: a float64 scalar prints as its
    Python float does.  No list of a whole column is made."""
    lengths = (len(table.trial_ids), len(table.groups.codes), len(table.labels.codes),
               len(table.scores))
    if len(set(lengths)) > 1:
        raise ValueError("score table columns differ in length: %d trial ids, %d groups, "
                         "%d labels, %d scores" % lengths)
    write_rows(path, (table.trial_ids, table.groups, table.labels,
                      map("%.12g".__mod__, table.scores)))
