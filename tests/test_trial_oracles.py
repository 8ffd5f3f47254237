"""Exact parity of the coded pair builder and the chunked writers with the
code they replace.

The versions below are the original build_pairs, build_all_pairs,
save_trials and write_scorefile, kept as oracles and changed only in their
names: the pair builder ran each rule on object arrays of the manifest's
strings and sorted the pairs as strings; the writers formatted one row at
a time.  On every manifest the pair builder must give equal trial rows per
category and for build_all_pairs, or raise EmptyCategory with the same
message, and sample_pairs the same rows of them; the writers must write
the same bytes.

The writers join tsv.WRITE_ROWS rows at a time; some tests set that size
as low as one row, so that a table ends on, before and after a chunk edge.
"""

import itertools
import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import embeddings, trial_set
from spoofsense import tsv
from spoofsense.errors import EmptyCategory
from spoofsense.metrics import Column, ScoreTable
from spoofsense.trials import (
    CATEGORIES,
    POSITIVE_CATEGORIES,
    ROLES,
    RULES,
    Manifest,
    ManifestRow,
    TrialSet,
    _columns,
    build_all_pairs,
    build_pairs,
    sample_pairs,
    save_trials,
    score_trials,
    write_scorefile,
)

# ---------------------------------------------------------------- oracles


def _role_grid_strings(manifest, role, shape):
    """The manifest's rows of one role as a ManifestRow of object arrays
    reshaped to shape, so that a rule on two such grids broadcasts."""
    table = np.array([r for r in manifest.rows if r.role == role], dtype=object)
    columns = table.reshape(-1, len(ManifestRow._fields)).T
    return ManifestRow._make(col.reshape(shape) for col in columns)


def build_pairs_strings(manifest, category):
    if category not in RULES:
        raise ValueError("unknown category %r" % category)
    role_a, role_b, rule = RULES[category]
    a = _role_grid_strings(manifest, role_a, (-1, 1))
    b = _role_grid_strings(manifest, role_b, (1, -1))
    keep = np.broadcast_to(rule(a, b), (a.utt_id.size, b.utt_id.size))
    if role_a == role_b:  # any two rows of one role: row i with each row j > i
        keep = np.triu(keep, 1)
    i, j = np.nonzero(keep)
    ids = sorted(zip(*np.sort([a.utt_id[i, 0], b.utt_id[0, j]], axis=0)))
    if not ids:
        raise EmptyCategory("no qualifying pairs for category %s" % category)
    label = "positive" if category in POSITIVE_CATEGORIES else "negative"
    utt_a, utt_b = map(list, zip(*ids))
    return TrialSet(utt_a, utt_b, [label] * len(ids), [category] * len(ids))


def build_all_pairs_strings(manifest):
    """Every category that has qualifying pairs, in canonical order."""
    columns = ([], [], [], [])
    for cat in CATEGORIES:
        try:
            ts = build_pairs_strings(manifest, cat)
        except EmptyCategory:
            continue
        for col, part in zip(columns, _columns(ts)):
            col += part
    if not columns[0]:
        raise EmptyCategory("no category has qualifying pairs")
    return TrialSet(*columns)


def save_trials_rows(path, ts):
    with open(path, "w") as fh:
        for row in zip(*_columns(ts)):  # a loop: % formats faster than a map over str.__mod__
            fh.write("%s\t%s\t%s\t%s\n" % row)


def rows(table):
    """A ScoreTable's rows in file order: (trial_id, group, label, score),
    or (group, label, score) for a parsed table, which holds no trial ids."""
    columns = [table.groups.tolist(), table.labels.tolist(), table.scores.tolist()]
    if table.trial_ids is not None:
        columns.insert(0, table.trial_ids)
    return list(zip(*columns))


def write_scorefile_rows(path, table):
    with open(path, "w") as fh:
        fh.writelines(map("%s\t%s\t%s\t%.12g\n".__mod__, rows(table)))


# ---------------------------------------------------------------- pair builder

ROLE_NAMES = sorted(ROLES)
# string order differs from any order of the numbers in them: u10 < u2 < u9
IDS = ["u1", "u2", "u9", "u10", "u100", "U3", "ü1", "é", "Ω", "z", "a-2", "a 2", "\x85"]
ID_CHARS = "ab1üΩé _-\x0c\x00"
# target and impersonator speakers; a mimicked target is drawn from the same
# names, so it equals other rows' speaker_id, or none when it names nobody
SPEAKERS = ["T1", "T2", "T10", "I1", "I2", "ü", "nobody"]


@st.composite
def manifests(draw):
    """Manifests in random row order; with loose, any row may have a
    mimicked target or none, which Manifest allows and load_manifest not."""
    ids = draw(st.lists(st.one_of(st.sampled_from(IDS), st.text(ID_CHARS, min_size=1, max_size=3)),
                        unique=True, max_size=24))
    loose = draw(st.booleans())
    rows = []
    for utt in ids:
        role = draw(st.sampled_from(ROLE_NAMES))
        target = None
        if loose:
            target = draw(st.one_of(st.none(), st.sampled_from(SPEAKERS)))
        elif role == "impersonation":
            target = draw(st.sampled_from(SPEAKERS))
        rows.append(ManifestRow(utt, draw(st.sampled_from(SPEAKERS)), role, "x.wav", target))
    return Manifest(rows=rows)


def imp(utt, speaker, target):
    return ManifestRow(utt, speaker, "impersonation", "x.wav", target)


def real(utt, speaker, role="target-real"):
    return ManifestRow(utt, speaker, role, "x.wav")


# one impersonator mimicking one target, another mimicking two, and a
# target whose speaker_id is what they mimic; no impersonator-real rows
MIMICS = Manifest(rows=[
    real("u10", "T1"), real("u2", "T1"), real("u9", "T2"), real("ü", "T2"),
    imp("i10", "I1", "T1"), imp("i2", "I1", "T1"),
    imp("j2", "I2", "T1"), imp("j10", "I2", "T2"), imp("j1", "I2", "T2"),
])


def outcome(fn, *args):
    try:
        return "ok", tuple(fn(*args))
    except EmptyCategory as exc:
        return "raise", str(exc)


def check_pairs(manifest):
    for cat in CATEGORIES:
        new = outcome(build_pairs, manifest, cat)
        assert new == outcome(build_pairs_strings, manifest, cat), cat
    new = outcome(build_all_pairs, manifest)
    assert new == outcome(build_all_pairs_strings, manifest)
    if new[0] == "ok":
        ts, old = build_all_pairs(manifest), build_all_pairs_strings(manifest)
        for n, seed in itertools.product((1, 2, len(ts) // 2 + 1, len(ts)), (0, 7)):
            assert tuple(sample_pairs(ts, n, seed)) == tuple(sample_pairs(old, n, seed))


@given(manifests())
@example(Manifest(rows=[]))
@example(MIMICS)
@example(Manifest(rows=[real("u10", "T1"), real("u2", "T1"), real("u1", "T2")]))
@settings(max_examples=300, deadline=None)
def test_pairs_match_the_string_builder(manifest):
    check_pairs(manifest)


def test_pairs_of_a_shuffled_protocol_match():
    """A protocol shaped like the benchmark's, in shuffled row order."""
    rows = [real("T%d_u%d" % (t, u), "T%d" % t) for t in range(12) for u in range(3)]
    for i in range(4):
        rows += [real("I%d_u%d" % (i, u), "I%d" % i, "impersonator-real") for u in range(2)]
        rows += [imp("I%d_as_T%d_u%d" % (i, t, u), "I%d" % i, "T%d" % t)
                 for t in (i, 3 * i + 1) for u in range(2)]
    random.Random(5).shuffle(rows)
    manifest = Manifest(rows=rows)
    check_pairs(manifest)
    assert len(build_all_pairs(manifest)) > 1000


# ---------------------------------------------------------------- writers

FIELD = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e-300, 5e-324, 1e300, np.inf]),
                   st.floats(allow_nan=False))


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_writers(tmp, ts, table):
    save_trials(tmp / "new.tsv", ts)
    save_trials_rows(tmp / "old.tsv", ts)
    assert file_bytes(tmp / "new.tsv") == file_bytes(tmp / "old.tsv")
    write_scorefile(tmp / "new.scores", table)
    write_scorefile_rows(tmp / "old.scores", table)
    assert file_bytes(tmp / "new.scores") == file_bytes(tmp / "old.scores")


def score_table(rows):
    """The ScoreTable of (trial_id, group, label, score) rows."""
    ids, groups, labels, scores = (list(col) for col in zip(*rows)) if rows else ([],) * 4
    return ScoreTable(ids, Column.of(groups), Column.of(labels), np.array(scores, np.float64))


@given(st.lists(st.tuples(FIELD, FIELD, FIELD, FIELD, SCORES), max_size=12),
       st.sampled_from([1, 2, 3, 5, tsv.WRITE_ROWS]))
@example([], tsv.WRITE_ROWS)
@example([("a", "b", "positive", "R", 0.5)], tsv.WRITE_ROWS)
@settings(max_examples=200, deadline=None)
def test_writers_match_the_row_writers(tmp_path_factory, rows, chunk):
    tmp = tmp_path_factory.mktemp("writers")
    with mock.patch.object(tsv, "WRITE_ROWS", chunk):
        check_writers(tmp, trial_set(row[:4] for row in rows),
                      score_table([row[:3] + row[4:] for row in rows]))


def test_writers_past_one_chunk(tmp_path):
    """Tables of one chunk, one row more and three chunks less one row."""
    rng = np.random.default_rng(3)
    for n in (tsv.WRITE_ROWS, tsv.WRITE_ROWS + 1, 3 * tsv.WRITE_ROWS - 1):
        ids = ["u%d" % k for k in rng.permutation(n)]
        cats = [CATEGORIES[k] for k in rng.integers(0, len(CATEGORIES), n)]
        labels = ["positive" if c in POSITIVE_CATEGORIES else "negative" for c in cats]
        table = score_table(list(zip(ids, cats, labels, rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n))))
        check_writers(tmp_path, TrialSet(ids, ids[::-1], labels, cats), table)
        assert file_bytes(tmp_path / "new.scores").count(b"\n") == n


def test_score_trials_table_writes_the_same(tmp_path):
    """The table score_trials builds from the pairs of a manifest, with one
    ScoreTable row per pair, past one write chunk."""
    rows = [real("t%d" % k, "T%d" % (k % 9)) for k in range(120)]
    rows += [imp("m%d" % k, "I%d" % (k % 3), "T%d" % (k % 5)) for k in range(30)]
    ts = build_all_pairs(Manifest(rows=rows))
    assert len(ts) > tsv.WRITE_ROWS
    rng = np.random.default_rng(11)
    emb = embeddings({r.utt_id: rng.normal(size=8) for r in rows})
    check_writers(tmp_path, ts, score_trials(ts, emb))
