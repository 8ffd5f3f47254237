import gc
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import embeddings, write_embeddings, write_manifest
from test_trial_oracles import rows
from spoofsense.errors import (
    DimMismatch,
    DuplicateUttId,
    EmptyCategory,
    MissingEmbedding,
    MissingMimickedTarget,
    ParseError,
    ZeroVector,
)
from spoofsense.metrics import Column, ScoreTable
from spoofsense.trials import (
    CATEGORIES,
    Embeddings,
    Manifest,
    ManifestRow,
    TrialSet,
    build_all_pairs,
    build_pairs,
    cosine_score,
    load_embeddings,
    load_manifest,
    load_trials,
    sample_pairs,
    save_trials,
    score_trials,
    write_scorefile,
)


def enumerate_category(rows, category):
    """Dumb reference: test every unordered pair against the definition."""
    out = set()
    for a, b in itertools.combinations(sorted(rows, key=lambda r: r.utt_id), 2):
        if category == "R":
            ok = a.role == b.role == "target-real" and a.speaker_id == b.speaker_id
        elif category == "RI":
            ok = a.role == b.role == "target-real" and a.speaker_id != b.speaker_id
        elif category == "IAB":
            ok = (
                a.role == b.role == "impersonation"
                and a.speaker_id == b.speaker_id
                and a.mimicked_target_id != b.mimicked_target_id
            )
        elif category == "TI":
            ok = {a.role, b.role} == {"target-real", "impersonation"} and (
                (a.role == "target-real" and b.mimicked_target_id == a.speaker_id)
                or (b.role == "target-real" and a.mimicked_target_id == b.speaker_id)
            )
        elif category == "IRAB":
            ok = a.role == b.role == "impersonator-real" and a.speaker_id != b.speaker_id
        elif category == "IRT":
            ok = {a.role, b.role} == {"impersonator-real", "target-real"}
        if ok:
            out.add((a.utt_id, b.utt_id))
    return out


def random_manifest(seed):
    rng = np.random.default_rng(seed)
    rows = []
    n_targets = rng.integers(1, 5)
    n_imps = rng.integers(1, 4)
    for t in range(n_targets):
        for u in range(rng.integers(1, 4)):
            rows.append(ManifestRow("T%dr%d" % (t, u), "T%d" % t, "target-real", "x.wav"))
    for i in range(n_imps):
        for u in range(rng.integers(0, 3)):
            rows.append(ManifestRow("I%dr%d" % (i, u), "I%d" % i, "impersonator-real", "x.wav"))
        for u in range(rng.integers(0, 4)):
            target = "T%d" % rng.integers(0, n_targets)
            rows.append(
                ManifestRow("I%dm%d" % (i, u), "I%d" % i, "impersonation", "x.wav",
                            mimicked_target_id=target)
            )
    return Manifest(rows=rows)


@pytest.mark.parametrize("seed", range(20))
def test_categories_match_enumerator(seed):
    m = random_manifest(seed)
    all_pairs = []
    for cat in CATEGORIES:
        expect = enumerate_category(m.rows, cat)
        try:
            ts = build_pairs(m, cat)
        except EmptyCategory:
            assert expect == set()
            continue
        got = {(p.utt_a, p.utt_b) for p in ts}
        assert got == expect
        want_label = "positive" if cat in ("R", "IAB") else "negative"
        assert all(p.label == want_label and p.category == cat for p in ts)
        assert all(p.utt_a < p.utt_b for p in ts)  # no self/dup pairs
        keys = [(p.utt_a, p.utt_b) for p in ts]
        assert keys == sorted(keys)  # the order that keeps trial lists byte-stable
        all_pairs += ts
    # build_all_pairs: each category's pairs, categories in CATEGORIES order
    if all_pairs:
        assert tuple(build_all_pairs(m)) == tuple(all_pairs)
    else:
        with pytest.raises(EmptyCategory):
            build_all_pairs(m)


def test_spec_counts():
    rows = [
        ManifestRow("%sr%d" % (s, i), s, "target-real", "x.wav")
        for s in ("X", "Y")
        for i in range(3)
    ]
    m = Manifest(rows=rows)
    assert len(build_pairs(m, "R")) == 6   # 2 * C(3,2)
    assert len(build_pairs(m, "RI")) == 9  # 3 * 3

    imp = [
        ManifestRow("i%s%d" % (t, k), "I1", "impersonation", "x.wav", mimicked_target_id=t)
        for t in ("X", "Y")
        for k in range(2)
    ]
    m2 = Manifest(rows=rows + imp)
    assert len(build_pairs(m2, "IAB")) == 4  # 2 * 2 cross-target


def test_all_pairs_concatenates_nonempty():
    rows = [ManifestRow("a", "S", "target-real", "x"), ManifestRow("b", "S", "target-real", "x")]
    m = Manifest(rows=rows)
    ts = build_all_pairs(m)  # only R qualifies; the rest are empty
    assert len(ts) == 1 and tuple(ts)[0].category == "R"
    with pytest.raises(EmptyCategory):
        build_all_pairs(Manifest(rows=[ManifestRow("a", "S", "bonafide", "x")]))


def test_sampling_deterministic_subset():
    m = random_manifest(3)
    ts = build_all_pairs(m)
    s1 = sample_pairs(ts, 5, seed=11)
    s2 = sample_pairs(ts, 5, seed=11)
    assert tuple(s1) == tuple(s2) and len(s1) == 5
    assert set(s1) <= set(ts)
    assert sample_pairs(ts, 10**6, seed=0) is ts


def test_manifest_roundtrip(tmp_path):
    m = random_manifest(1)
    write_manifest(tmp_path / "m.tsv", [
        (r.utt_id, r.speaker_id, r.role, r.mimicked_target_id or "-", r.attack_id or "-", r.path)
        for r in m.rows
    ])
    assert load_manifest(tmp_path / "m.tsv").rows == m.rows


def test_trials_roundtrip(tmp_path):
    ts = build_all_pairs(random_manifest(2))
    save_trials(tmp_path / "t.tsv", ts)
    assert tuple(load_trials(tmp_path / "t.tsv")) == tuple(ts)


def test_loaded_trials_share_one_string_per_name(tmp_path):
    """load_trials keeps one str object per distinct field value, shared by
    utt_a and utt_b, so that a list of many trials over few utterances holds
    little beyond its four lists of references: with one str per field it
    held about 240 B per trial."""
    n = 20000
    a = np.random.default_rng(0).integers(0, 100, (n, 2))
    cats = [CATEGORIES[k % len(CATEGORIES)] for k in range(n)]
    path = tmp_path / "t.tsv"
    path.write_text("".join("utt%03d\tutt%03d\t%s\t%s\n"
                            % (i, j, "positive" if cat in ("R", "IAB") else "negative", cat)
                            for (i, j), cat in zip(a.tolist(), cats)))
    gc.collect()
    tracemalloc.start()
    try:
        ts = load_trials(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ts) == n and held / n < 64
    for column in (ts.utt_a + ts.utt_b, ts.labels, ts.categories):
        assert len({id(name) for name in column}) == len(set(column))


def many_trials(n, m, dim):
    """A TrialSet of n trials drawn over m utterances, one str object per
    utterance id as load_trials keeps them, with Embeddings of dim values."""
    rng = np.random.default_rng(1)
    ids = ["utt%04d" % k for k in range(m)]
    a = rng.integers(0, m, (n, 2)).tolist()
    cats = [CATEGORIES[k % len(CATEGORIES)] for k in range(n)]
    labels = ["positive" if cat in ("R", "IAB") else "negative" for cat in cats]
    ts = TrialSet([ids[i] for i, _ in a], [ids[j] for _, j in a], labels, cats)
    return ts, Embeddings(ids, rng.normal(size=(m, dim)))


def test_scoring_memory_per_trial(tmp_path):
    """score_trials plus write_scorefile on 60,000 trials at the benchmark's
    dim of 64: a bounded peak per trial beyond the trial list and the
    embeddings.  With one joined id string per trial, gathers of 4096 pairs
    and whole-column name lists it was about 118 B per trial."""
    n = 60000
    ts, emb = many_trials(n, 400, 64)
    gc.collect()
    tracemalloc.start()
    try:
        write_scorefile(tmp_path / "s.scores", score_trials(ts, emb))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 64
    assert (tmp_path / "s.scores").read_bytes().count(b"\n") == n


def test_score_table_writes_the_same_twice(tmp_path):
    """A score_trials table read twice, past one write chunk, gives the same
    bytes both times: its trial ids can be read more than once."""
    ts, emb = many_trials(5000, 60, 3)
    table = score_trials(ts, emb)
    write_scorefile(tmp_path / "a.scores", table)
    write_scorefile(tmp_path / "b.scores", table)
    first = (tmp_path / "a.scores").read_bytes()
    assert first == (tmp_path / "b.scores").read_bytes()
    assert first.count(b"\n") == len(ts)
    assert first.startswith(("%s:%s\t" % (ts.utt_a[0], ts.utt_b[0])).encode())


@pytest.mark.parametrize("short", ["trial_ids", "groups", "labels", "scores"])
def test_write_scorefile_rejects_unequal_columns(tmp_path, short):
    """A column one row short raises ValueError and writes no file, where
    zipping the columns would drop the last row."""
    columns = {"trial_ids": ["a:b", "a:c"], "groups": Column.of(["-", "RI"]),
               "labels": Column.of(["target", "nontarget"]), "scores": np.array([0.5, -0.25])}
    column = columns[short]
    columns[short] = (Column(column.names, column.codes[:1]) if isinstance(column, Column)
                      else column[:1])
    with pytest.raises(ValueError, match="differ in length"):
        write_scorefile(tmp_path / "s.scores", ScoreTable(**columns))
    assert not (tmp_path / "s.scores").exists()


@pytest.mark.parametrize("bad", ["c\td\tpositive\tRI", "c\td\tnegative\tR"],
                         ids=["positive-RI", "negative-R"])
def test_trials_label_contradicting_category(tmp_path, bad):
    (tmp_path / "t.tsv").write_text("a\tb\tpositive\tIAB\n\n%s\n" % bad)
    with pytest.raises(ParseError, match="contradicts category") as e:
        load_trials(tmp_path / "t.tsv")
    assert e.value.line == 3


@pytest.mark.parametrize(
    "rows, exc",
    [
        ([("u1", "s", "target-real", "-", "-", "x"), ("u1", "s", "target-real", "-", "-", "y")], DuplicateUttId),
        ([("u1", "s", "impersonation", "-", "-", "x")], MissingMimickedTarget),
        ([("u1", "s", "target-real", "T9", "-", "x")], ParseError),  # mimicked on wrong role
        ([("u1", "s", "alien", "-", "-", "x")], ParseError),
    ],
)
def test_manifest_errors(tmp_path, rows, exc):
    write_manifest(tmp_path / "m.tsv", rows)
    with pytest.raises(exc):
        load_manifest(tmp_path / "m.tsv")


def test_manifest_header_errors(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("utt_id\tspeaker_id\trole\tbogus\tpath\nu\ts\tbonafide\t-\tx\n")
    with pytest.raises(ParseError) as e:
        load_manifest(p)
    assert e.value.line == 1
    p.write_text("utt_id\tspeaker_id\trole\npartial\trow\n")
    with pytest.raises(ParseError):
        load_manifest(p)
    p.write_text("utt_id\tspeaker_id\trole\tpath\nu\ts\tbonafide\n")
    with pytest.raises(ParseError) as e:
        load_manifest(p)
    assert e.value.line == 2


@pytest.mark.parametrize("utt", ["", "../escaped", "sub/u1", "/abs"])
def test_manifest_rejects_ids_that_name_other_paths(tmp_path, utt):
    """A utt_id names <dir>/<utt_id>.<kind>.ssft, so it is non-empty and holds no '/'."""
    p = tmp_path / "m.tsv"
    p.write_text("utt_id\tspeaker_id\trole\tpath\nok\ts\tbonafide\tx\n\n%s\ts\tspoof\ty\n" % utt)
    message = "%s line 4: utt_id %r must be non-empty and hold no '/'" % (p, utt)
    with pytest.raises(ParseError, match="^%s$" % re.escape(message)) as e:
        load_manifest(p)
    assert e.value.line == 4


def test_manifest_duplicate_column(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("utt_id\tspeaker_id\trole\tpath\tpath\nu\ts\tbonafide\tx\ty\n")
    message = "%s line 1: duplicate column 'path'" % p
    with pytest.raises(ParseError, match="^%s$" % re.escape(message)) as e:
        load_manifest(p)
    assert e.value.line == 1


# str.splitlines() breaks lines at these too, a text file at newlines only
ODD_ID = "u\x0b\x0c\x1c\x1d\x1e\x85\u2028\u20291"


@pytest.mark.parametrize("reader", ["manifest", "embeddings", "trials"])
def test_lines_end_at_newlines_only(tmp_path, reader):
    """A table file breaks lines at its newlines, CRLF or LF, and nowhere else."""
    text, load, ids = {
        "manifest": ("utt_id\tspeaker_id\trole\tpath\n%s\ts\tbonafide\tx.wav\n",
                     load_manifest, lambda m: [r.utt_id for r in m.rows]),
        "embeddings": ("dim=2\n%s\t1 2\n", load_embeddings, lambda e: e.ids),
        "trials": ("%s\tv\tpositive\tR\n", load_trials, lambda t: t.utt_a),
    }[reader]
    p = tmp_path / reader
    p.write_bytes((text % ODD_ID).replace("\n", "\r\n", 1).encode())
    assert ids(load(p)) == [ODD_ID]


def test_decode_error_names_the_line(tmp_path):
    """The line of a bad byte is counted by the readers' line rule: a lone
    "\r" ends a line, and "\r\n" ends one line, not two."""
    head = b"utt_id\tspeaker_id\trole\tpath\r\na\ts\tbonafide\tx.wav\r"
    p = tmp_path / "manifest"
    p.write_bytes(head + b"\xffb\ts\tbonafide\tx.wav\n")
    with pytest.raises(ParseError, match="^%s line 3: 'utf-8' codec can't decode byte 0xff "
                       "in position %d: invalid start byte$" % (re.escape(str(p)), len(head))):
        load_manifest(p)


def test_cosine_examples():
    assert cosine_score([1, 2, 2], [2, 1, 2]) == 8 / 9
    assert cosine_score([1, 0], [0, 1]) == 0.0
    assert cosine_score([3, 0], [-2, 0]) == -1.0
    # norms of [1,1] round, so only near-exact opposition is guaranteed here
    assert abs(cosine_score([1, 1], [-1, -1]) + 1.0) < 1e-15
    with pytest.raises(ZeroVector):
        cosine_score([0, 0], [1, 1])
    with pytest.raises(DimMismatch):
        cosine_score([1, 2], [1, 2, 3])


@given(
    a=st.lists(st.floats(-10, 10), min_size=2, max_size=8),
    alpha=st.floats(0.001, 1000),
    beta=st.floats(0.001, 1000),
)
@example(a=[0.0, 1.5181935082953402e-161], alpha=0.5, beta=1.0)  # squared norm underflows
@settings(max_examples=60, deadline=None)
def test_cosine_scale_invariance(a, alpha, beta):
    a = np.array(a)
    b = a[::-1] + 0.5
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    base = cosine_score(a, b)
    assert abs(cosine_score(alpha * a, beta * b) - base) < 1e-12


def test_embeddings_roundtrip_and_errors(tmp_path):
    emb = embeddings({"u2": np.array([0.5, -1.0, 2.5]), "u1": np.array([1.0, 2.0, 3.0])})
    write_embeddings(tmp_path / "e.txt", emb)
    back = load_embeddings(tmp_path / "e.txt")
    assert back.vectors.shape[1] == 3 and back.ids == ["u2", "u1"]  # file order
    assert back.vectors.dtype == np.float64
    np.testing.assert_array_equal(back.vectors, emb.vectors)
    p = tmp_path / "none.txt"
    p.write_text("dim=5\n\n")
    assert load_embeddings(p).vectors.shape == (0, 5)

    p = tmp_path / "bad.txt"
    p.write_text("u1\t1 2 3\n")  # no dim header
    with pytest.raises(ParseError):
        load_embeddings(p)
    p.write_text("dim=3\nu1\t1 2\n")
    with pytest.raises(ParseError) as e:
        load_embeddings(p)
    assert e.value.line == 2
    p.write_text("dim=3\nu1\t1 2 3\nu1\t4 5 6\n")
    with pytest.raises(DuplicateUttId):
        load_embeddings(p)
    p.write_text("dim=3\nu1\t1 2 nan\n")
    with pytest.raises(ParseError):
        load_embeddings(p)


@pytest.mark.parametrize("dim", ["99999999999999999999", str(np.iinfo(np.intp).max),
                                 str(np.iinfo(np.intp).max // 8 + 1)])
def test_embeddings_dim_beyond_any_array(tmp_path, dim):
    p = tmp_path / "e.txt"
    p.write_text("dim=%s\n" % dim)
    with pytest.raises(ParseError, match="exceeds any array's size") as e:
        load_embeddings(p)
    assert e.value.line == 1
    # the widest dim a float64 array can have still loads, as (0, dim)
    widest = np.iinfo(np.intp).max // 8
    p.write_text("dim=%d\n" % widest)
    assert load_embeddings(p).vectors.shape == (0, widest)
    p.write_text("dim=5\n")
    assert load_embeddings(p).vectors.shape == (0, 5)


def test_score_trials_groups_and_labels():
    m = Manifest(rows=[
        ManifestRow("t1", "T", "target-real", "x"),
        ManifestRow("t2", "T", "target-real", "x"),
        ManifestRow("i1", "I", "impersonation", "x", mimicked_target_id="T"),
    ])
    ts = build_all_pairs(m)  # R pair (t1,t2) + TI pairs (t1,i1), (t2,i1)
    emb = embeddings(
        {"t1": np.array([1.0, 0.0]), "t2": np.array([0.9, 0.1]), "i1": np.array([0.0, 1.0])}
    )
    scored = score_trials(ts, emb)
    by_id = {trial_id: (group, label) for trial_id, group, label, _ in rows(scored)}
    assert by_id["t1:t2"] == ("-", "target")
    assert by_id["i1:t1"] == ("TI", "nontarget")
    with pytest.raises(MissingEmbedding):
        score_trials(ts, embeddings({"t1": np.array([1.0, 0.0])}))
