import os
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import machine_buf, natural_buf, tone, wav_bytes, write_manifest
from spoofsense.audio import write_wav
from spoofsense import audio, cli
from spoofsense.cli import _kind_table, _pooled_vector, main
from spoofsense.errors import MissingFeatureFile
from spoofsense.metrics import parse_scorefile
from spoofsense.spectral import KINDS, FeatureMatrix
from spoofsense.store import read_feature, write_feature
from spoofsense.trials import write_scorefile
from test_audio import wav_at_rate
from test_trial_oracles import write_scorefile_rows

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FAST_CONF = "epochs = 8\nhidden1 = 6\nhidden2 = 4\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliws")
    rows = []
    for i in range(3):
        u = "bona%d" % i
        write_wav(d / ("%s.wav" % u), natural_buf(105 + 15 * i, seed=40 + i, dur=0.9))
        rows.append((u, "s%d" % i, "bonafide", "-", "-", str(d / ("%s.wav" % u))))
    for i in range(3):
        u = "spoof%d" % i
        write_wav(d / ("%s.wav" % u), machine_buf(110 + 15 * i, dur=0.9))
        rows.append((u, "s%d" % i, "spoof", "-", "A0%d" % (7 + i % 2), str(d / ("%s.wav" % u))))
    write_manifest(d / "manifest.tsv", rows)
    (d / "fast.conf").write_text(FAST_CONF)
    return d


def run(*argv):
    return main([str(a) for a in argv])


def test_extract_and_formats(workspace):
    out = workspace / "feats"
    for feature, dims in (("mfcc", 39), ("jitter-shimmer", 2), ("pse", 1)):
        assert run("extract", "--manifest", workspace / "manifest.tsv",
                   "--feature", feature, "--out-dir", out) == 0
        m = read_feature(out / ("bona0.%s.ssft" % feature))
        assert m.kind == feature and m.dims == dims


def test_extract_jobs_deterministic(workspace):
    a, b = workspace / "j1", workspace / "j2"
    assert run("extract", "--manifest", workspace / "manifest.tsv",
               "--feature", "pse", "--out-dir", a, "--jobs", 1) == 0
    assert run("extract", "--manifest", workspace / "manifest.tsv",
               "--feature", "pse", "--out-dir", b, "--jobs", 3) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


HELPERS = audio.helper_pool(3)  # made once: its threads, once started, stay for the process


@pytest.mark.parametrize("jobs, n_rows", [(2, 6), (6, 6), (7, 6), (5000, 6), (5000, 1)])
def test_extract_asks_for_at_most_one_worker_per_row(workspace, tmp_path, monkeypatch,
                                                     jobs, n_rows):
    """extract runs at most `jobs` rows at once, on the calling thread and
    the block helpers, one thread per row, and runs one row on the calling
    thread.  With three helpers, each of the first rows waits until
    min(jobs, rows, 4) rows run at once, so the cap is reached, and no
    further thread takes a row: --jobs 2 runs two rows at once."""
    lines = (workspace / "manifest.tsv").read_text().splitlines(keepends=True)
    (tmp_path / "m.tsv").write_text("".join(lines[: 1 + n_rows]))
    args = ["extract", "--manifest", tmp_path / "m.tsv", "--feature", "f0", "--out-dir"]
    assert run(*args, tmp_path / "serial") == 0

    at_once = min(jobs, n_rows, 1 + HELPERS[0])
    first = {line.rstrip("\n").split("\t")[-1] for line in lines[1 : 1 + at_once]}
    barrier, threads, real = threading.Barrier(at_once), [], cli.read_wav

    def one(path):  # read once per row, on the row's thread
        threads.append(threading.get_ident())
        if path in first:
            barrier.wait(10.0)
        return real(path)

    monkeypatch.setattr(audio, "_helpers", HELPERS)
    monkeypatch.setattr(cli, "read_wav", one)
    assert run(*args, tmp_path / "pooled", "--jobs", jobs) == 0
    assert len(threads) == n_rows and len(set(threads)) == at_once
    if n_rows == 1:
        assert threads == [threading.get_ident()]
    names = sorted(os.listdir(tmp_path / "serial"))
    assert len(names) == n_rows and names == sorted(os.listdir(tmp_path / "pooled"))
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pooled" / name).read_bytes()


def test_extract_failure_policy(workspace, tmp_path):
    rows = [
        ("ok", "s", "bonafide", "-", "-", str(workspace / "bona0.wav")),
        ("broken", "s", "spoof", "-", "-", str(tmp_path / "missing.wav")),
    ]
    write_manifest(tmp_path / "m.tsv", rows)
    out = tmp_path / "f"
    assert run("extract", "--manifest", tmp_path / "m.tsv", "--feature", "pse",
               "--out-dir", out) == 1
    assert run("extract", "--manifest", tmp_path / "m.tsv", "--feature", "pse",
               "--out-dir", out, "--keep-going") == 0
    assert (out / "ok.pse.ssft").exists()
    assert not (out / "broken.pse.ssft").exists()


@pytest.mark.parametrize("utt", ["../escaped", ""])
def test_extract_writes_only_under_out_dir(workspace, tmp_path, utt):
    """A utt_id that would name a file outside --out-dir, or a hidden one in
    it, fails the manifest, and extract writes nothing."""
    wav = str(workspace / "bona0.wav")
    write_manifest(tmp_path / "m.tsv", [(utt, "s", "bonafide", "-", "-", wav)])
    out = tmp_path / "out" / "sub"
    assert run("extract", "--manifest", tmp_path / "m.tsv", "--feature", "f0",
               "--out-dir", out) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["m.tsv"]


def test_extract_usage_errors(workspace):
    assert run("extract", "--manifest", workspace / "manifest.tsv",
               "--feature", "bogus", "--out-dir", workspace / "x") == 2
    assert run("no-such-command") == 2


@pytest.mark.parametrize("jobs", [0, -1])
def test_extract_rejects_jobs_below_one(workspace, tmp_path, jobs, capsys):
    out = tmp_path / "feats"
    assert run("extract", "--manifest", workspace / "manifest.tsv",
               "--feature", "f0", "--out-dir", out, "--jobs", jobs) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_score_eval_pipeline(workspace, tmp_path):
    feats = workspace / "feats"
    model = tmp_path / "cm.mdl"
    assert run("train-cm", "--features", "jitter-shimmer,pse",
               "--manifest", workspace / "manifest.tsv", "--feature-dir", feats,
               "--out-model", model, "--config", workspace / "fast.conf") == 0
    assert model.exists()
    losses = (tmp_path / "cm.mdl.losses.txt").read_text().splitlines()
    assert len(losses) == 8

    # same seed -> identical model bytes
    model2 = tmp_path / "cm2.mdl"
    assert run("train-cm", "--features", "jitter-shimmer,pse",
               "--manifest", workspace / "manifest.tsv", "--feature-dir", feats,
               "--out-model", model2, "--config", workspace / "fast.conf") == 0
    assert model.read_bytes() == model2.read_bytes()

    scores = tmp_path / "cm.scores"
    assert run("score-cm", "--model", model, "--manifest", workspace / "manifest.tsv",
               "--features", "jitter-shimmer,pse", "--feature-dir", feats,
               "--out-scores", scores) == 0
    rows = parse_scorefile(scores)
    assert len(rows) == 6
    groups = {g for _, g, _, _ in rows}
    assert groups == {"-", "A07", "A08"}

    report = tmp_path / "eer.csv"
    assert run("eval", "--scores", scores, "--out", report) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "group,n_pos,n_neg,eer,threshold"
    assert [l.split(",")[0] for l in lines[1:]] == ["A07", "A08", "ALL"]

    report2 = tmp_path / "tdcf.csv"
    assert run("eval", "--scores", scores, "--metric", "tdcf",
               "--cost-config", "configs/tdcf_example.conf", "--out", report2) == 0
    assert report2.read_text().splitlines()[0].endswith(",min_tdcf")


WIDTHS_CONF = "n_fft = 1024\nn_ceps = 12\nenv_n_fft = 2048\nap_bands = 4\n"


def test_every_configurable_width_end_to_end(workspace, tmp_path):
    """Each kind whose width the config sets writes files of that width,
    and train-cm and score-cm pool them: mfcc is 3 x n_ceps wide."""
    conf = tmp_path / "widths.conf"
    conf.write_text(WIDTHS_CONF + FAST_CONF)
    widths = {"stft": 513, "mfcc": 36, "sp": 1025, "ap": 4, "f0": 1, "jitter-shimmer": 2, "pse": 1}
    assert list(widths) == list(KINDS)
    feats = tmp_path / "feats"
    for kind, dims in widths.items():
        assert run("extract", "--manifest", workspace / "manifest.tsv", "--feature", kind,
                   "--out-dir", feats, "--config", conf) == 0
        for name in ("bona0", "bona1", "bona2", "spoof0", "spoof1", "spoof2"):
            m = read_feature(feats / ("%s.%s.ssft" % (name, kind)))
            assert m.kind == kind and m.dims == dims

    features = ",".join(widths)
    model = tmp_path / "cm.mdl"
    assert run("train-cm", "--features", features, "--manifest", workspace / "manifest.tsv",
               "--feature-dir", feats, "--out-model", model, "--config", conf) == 0
    scores = tmp_path / "cm.scores"
    assert run("score-cm", "--model", model, "--manifest", workspace / "manifest.tsv",
               "--features", features, "--feature-dir", feats, "--out-scores", scores) == 0
    assert len(parse_scorefile(scores)) == 6


def test_eval_tdcf_requires_cost_config(workspace, tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("t\t-\ttarget\t1\nu\t-\tnontarget\t0\n")
    assert run("eval", "--scores", p, "--metric", "tdcf") == 2


def test_eval_cost_config_requires_tdcf(tmp_path, capsys):
    """A cost model applies only to the t-DCF, so without --metric tdcf it is
    a usage error, not an EER report that silently ignores it."""
    p, out = tmp_path / "s.tsv", tmp_path / "r.csv"
    p.write_text("t\t-\ttarget\t1\nu\t-\tnontarget\t0\n")
    for metric in ([], ["--metric", "eer"]):
        assert run("eval", "--scores", p, *metric, "--cost-config",
                   CONFIGS / "tdcf_example.conf", "--out", out) == 2
        assert "--cost-config applies to --metric tdcf only" in capsys.readouterr().err
        assert not out.exists()


def test_eval_tdcf_config_without_cost_model_names_it(tmp_path, capsys):
    """A config without the cost keys fails naming the file, as a partial
    cost block does."""
    p, out = tmp_path / "s.tsv", tmp_path / "r.csv"
    p.write_text("t\t-\ttarget\t1\nu\t-\tnontarget\t0\n")
    config = CONFIGS / "default.conf"
    assert run("eval", "--scores", p, "--metric", "tdcf", "--cost-config", config,
               "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: %s: cost model keys missing: p_target, p_nontarget, p_spoof, c_miss_asv, "
        "c_fa_asv, c_miss_cm, c_fa_cm, p_miss_asv, p_fa_asv, p_miss_spoof_asv\n" % config)
    assert not out.exists()
    partial = tmp_path / "c.conf"
    partial.write_text("p_target = 0.9\n")
    assert run("eval", "--scores", p, "--metric", "tdcf", "--cost-config", partial) == 1
    assert capsys.readouterr().err.startswith(
        "error: %s: cost model is all-or-nothing; missing p_nontarget, " % partial)


@pytest.mark.parametrize("text", ["1_0", "\u0661", "1\u0660"])
def test_numbers_only_float_reads_are_rejected(tmp_path, capsys, text):
    """float() reads '1_0' as 10 and the digits of other scripts; a score or
    an embedding value written so is rejected like any bad number."""
    scores = tmp_path / "s.tsv"
    scores.write_text("t0\tA\ttarget\t1\nt1\tA\tspoof\t%s\n" % text, encoding="utf-8")
    assert run("eval", "--scores", scores) == 1
    assert capsys.readouterr().err == "error: %s line 2: bad score %r\n" % (scores, text)
    trials, emb = tmp_path / "trials.tsv", tmp_path / "emb.txt"
    trials.write_text("a\tb\tnegative\tRI\n")
    emb.write_text("dim=2\na\t1 2\nb\t3 %s\n" % text, encoding="utf-8")
    assert run("score-asv", "--pairs", trials, "--embeddings", emb,
               "--out-scores", tmp_path / "o.scores") == 1
    assert capsys.readouterr().err == "error: %s line 3: non-numeric embedding value\n" % emb
    assert not (tmp_path / "o.scores").exists()


def test_score_tables_round_trip(workspace, tmp_path, monkeypatch):
    """The tables that score-cm and score-asv build write, parse and iterate
    as the same rows, and write again as the same bytes; the row writer that
    write_scorefile replaced writes them as the same bytes too."""
    tables = []

    def write_and_keep(path, table):
        tables.append((path, table))
        write_scorefile(path, table)

    monkeypatch.setattr(cli, "write_scorefile", write_and_keep)
    feats, model = tmp_path / "feats", tmp_path / "m.mdl"
    manifest = workspace / "manifest.tsv"
    assert run("extract", "--manifest", manifest, "--feature", "pse", "--out-dir", feats) == 0
    assert run("train-cm", "--features", "pse", "--manifest", manifest, "--feature-dir", feats,
               "--out-model", model, "--config", workspace / "fast.conf") == 0
    assert run("score-cm", "--model", model, "--manifest", manifest, "--features", "pse",
               "--feature-dir", feats, "--out-scores", tmp_path / "cm.scores") == 0
    trials, emb = tmp_path / "trials.tsv", tmp_path / "emb.txt"
    trials.write_text("a\tb\tpositive\tR\na\tc\tnegative\tRI\nb\tc\tnegative\tTI\n"
                      "c\td\tnegative\tRI\n")
    emb.write_text("dim=2\na\t1 2\nb\t1 2.5\nc\t-3 1\nd\t0.25 -4\n")
    assert run("score-asv", "--pairs", trials, "--embeddings", emb,
               "--out-scores", tmp_path / "asv.scores") == 0
    assert [os.path.basename(path) for path, _ in tables] == ["cm.scores", "asv.scores"]
    for path, table in tables:
        parsed = parse_scorefile(path)
        assert [(t, g, l, float("%.12g" % s)) for t, g, l, s in table] == list(parsed)
        assert set(parsed.groups.names) == set(table.groups.names)
        assert set(parsed.labels.names) == set(table.labels.names)
        write_scorefile(tmp_path / "again.scores", parsed)
        assert (tmp_path / "again.scores").read_bytes() == Path(path).read_bytes()
        write_scorefile_rows(tmp_path / "rows.scores", table)
        assert (tmp_path / "rows.scores").read_bytes() == Path(path).read_bytes()


def test_train_needs_both_classes(workspace, tmp_path):
    rows = [("only", "s", "bonafide", "-", "-", str(workspace / "bona0.wav"))]
    write_manifest(tmp_path / "m.tsv", rows)
    assert run("train-cm", "--features", "pse", "--manifest", tmp_path / "m.tsv",
               "--feature-dir", workspace / "feats", "--out-model", tmp_path / "m.mdl") == 1


def test_train_missing_feature_file(workspace, tmp_path):
    assert run("train-cm", "--features", "stft", "--manifest", workspace / "manifest.tsv",
               "--feature-dir", workspace / "feats", "--out-model", tmp_path / "m.mdl") == 1


def test_missing_or_unreadable_feature_file_exits_one(workspace, tmp_path, capsys):
    feats, manifest = tmp_path / "feats", workspace / "manifest.tsv"
    assert run("extract", "--manifest", manifest, "--feature", "pse", "--out-dir", feats) == 0
    path = feats / "bona1.pse.ssft"
    path.unlink()
    with pytest.raises(MissingFeatureFile, match="bona1.pse.ssft"):
        _pooled_vector("bona1", _kind_table(["pse"], str(feats)))
    capsys.readouterr()
    argv = ("train-cm", "--features", "pse", "--manifest", manifest, "--feature-dir", feats,
            "--out-model", tmp_path / "m.mdl")
    assert run(*argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % path
    path.mkdir()  # a directory where the file should be is an OSError, not a missing file
    assert run(*argv) == 1
    assert capsys.readouterr().err == "error: [Errno 21] Is a directory: '%s'\n" % path
    assert not (tmp_path / "m.mdl").exists()


def test_corrupt_feature_file_exits_one(workspace, tmp_path, capsys):
    feats, model = tmp_path / "feats", tmp_path / "m.mdl"
    manifest = workspace / "manifest.tsv"
    assert run("extract", "--manifest", manifest, "--feature", "pse", "--out-dir", feats) == 0
    assert run("train-cm", "--features", "pse", "--manifest", manifest, "--feature-dir", feats,
               "--out-model", model, "--config", workspace / "fast.conf") == 0
    raw = bytearray((feats / "spoof1.pse.ssft").read_bytes())
    raw[-4:] = np.float32(np.nan).tobytes()
    (feats / "spoof1.pse.ssft").write_bytes(bytes(raw))
    capsys.readouterr()
    assert run("train-cm", "--features", "pse", "--manifest", manifest, "--feature-dir", feats,
               "--out-model", tmp_path / "m2.mdl") == 1
    assert "error: feature data contains non-finite entries" in capsys.readouterr().err
    assert run("score-cm", "--model", model, "--manifest", manifest, "--features", "pse",
               "--feature-dir", feats, "--out-scores", tmp_path / "s.tsv") == 1
    assert "error: feature data contains non-finite entries" in capsys.readouterr().err


def test_score_cm_failure_writes_no_scores(workspace, tmp_path, capsys):
    feats, model = tmp_path / "feats", tmp_path / "m.mdl"
    manifest = workspace / "manifest.tsv"
    assert run("extract", "--manifest", manifest, "--feature", "pse", "--out-dir", feats) == 0
    assert run("train-cm", "--features", "pse", "--manifest", manifest, "--feature-dir", feats,
               "--out-model", model, "--config", workspace / "fast.conf") == 0
    (feats / "spoof2.pse.ssft").unlink()  # the last manifest row
    capsys.readouterr()
    scores = tmp_path / "s.tsv"
    assert run("score-cm", "--model", model, "--manifest", manifest, "--features", "pse",
               "--feature-dir", feats, "--out-scores", scores) == 1
    assert "spoof2.pse.ssft" in capsys.readouterr().err
    assert not scores.exists()


def write_features(feature_dir, kind, stored):
    """One feature file per utterance: stored maps utt_id to (kind tag, data)."""
    feature_dir.mkdir()
    for utt, (tag, data) in stored.items():
        write_feature(feature_dir / ("%s.%s.ssft" % (utt, kind)), FeatureMatrix(tag, data, 0.01))


def two_utt_manifest(path):
    write_manifest(path, [("u1", "s1", "bonafide", "-", "-", "x"),
                          ("u2", "s2", "spoof", "-", "-", "x")])
    return path


def test_mismatched_vector_lengths_exit_one(workspace, tmp_path, capsys):
    manifest = two_utt_manifest(tmp_path / "m.tsv")
    write_features(tmp_path / "good", "stft", {"u1": ("stft", np.ones((3, 5))),
                                               "u2": ("stft", np.zeros((3, 5)))})
    write_features(tmp_path / "bad", "stft", {"u1": ("stft", np.ones((3, 5))),
                                              "u2": ("stft", np.zeros((3, 7)))})
    model = tmp_path / "m.mdl"
    assert run("train-cm", "--features", "stft", "--manifest", manifest,
               "--feature-dir", tmp_path / "good", "--out-model", model,
               "--config", workspace / "fast.conf") == 0
    capsys.readouterr()
    assert run("train-cm", "--features", "stft", "--manifest", manifest,
               "--feature-dir", tmp_path / "bad", "--out-model", tmp_path / "m2.mdl") == 1
    assert "error: u2: pooled vector of length 7, u1's has 5" in capsys.readouterr().err
    scores = tmp_path / "s.tsv"
    assert run("score-cm", "--model", model, "--manifest", manifest, "--features", "stft",
               "--feature-dir", tmp_path / "bad", "--out-scores", scores) == 1
    assert "error: u2: pooled vector of length 7, u1's has 5" in capsys.readouterr().err
    assert not scores.exists()


def test_wrong_kind_tag_exit_one(tmp_path, capsys):
    # an F0 contour saved under the pse name must not be read as a PSE
    write_features(tmp_path / "f", "pse", {"u1": ("f0", np.full((4, 1), 120.0)),
                                           "u2": ("pse", np.full((1, 1), 0.5))})
    assert run("train-cm", "--features", "pse", "--manifest", two_utt_manifest(tmp_path / "m.tsv"),
               "--feature-dir", tmp_path / "f", "--out-model", tmp_path / "m.mdl") == 1
    assert "u1.pse.ssft holds kind 'f0', not 'pse'" in capsys.readouterr().err
    assert not (tmp_path / "m.mdl").exists()


@pytest.mark.parametrize("rows", [3, 2])
def test_utterance_level_file_must_hold_one_row(workspace, tmp_path, capsys, rows):
    manifest, model = two_utt_manifest(tmp_path / "m.tsv"), tmp_path / "m.mdl"
    write_features(tmp_path / "f", "pse", {"u1": ("pse", np.full((1, 1), 0.5)),
                                           "u2": ("pse", np.full((1, 1), 0.7))})
    feats = ["--features", "pse", "--manifest", manifest, "--feature-dir", tmp_path / "f"]
    assert run("train-cm", *feats, "--out-model", model, "--config", workspace / "fast.conf") == 0
    path = tmp_path / "f" / "u2.pse.ssft"
    write_feature(path, FeatureMatrix("pse", np.full((rows, 1), 0.7), 0.0))
    capsys.readouterr()
    want = "error: %s holds %d rows, utterance-level kind 'pse' holds 1\n" % (path, rows)
    assert run("train-cm", *feats, "--out-model", tmp_path / "m2.mdl") == 1
    assert capsys.readouterr().err == want
    assert run("score-cm", "--model", model, *feats, "--out-scores", tmp_path / "s.tsv") == 1
    assert capsys.readouterr().err == want
    assert not (tmp_path / "m2.mdl").exists() and not (tmp_path / "s.tsv").exists()


def test_score_cm_empty_manifest_exits_one(workspace, tmp_path, capsys):
    manifest, model = two_utt_manifest(tmp_path / "m.tsv"), tmp_path / "m.mdl"
    write_features(tmp_path / "f", "pse", {"u1": ("pse", np.full((1, 1), 0.5)),
                                           "u2": ("pse", np.full((1, 1), 0.7))})
    feats = ["--features", "pse", "--feature-dir", tmp_path / "f"]
    assert run("train-cm", *feats, "--manifest", manifest, "--out-model", model,
               "--config", workspace / "fast.conf") == 0
    write_manifest(tmp_path / "empty.tsv", [])
    capsys.readouterr()
    scores = tmp_path / "s.tsv"
    assert run("score-cm", "--model", model, *feats, "--manifest", tmp_path / "empty.tsv",
               "--out-scores", scores) == 1
    assert capsys.readouterr().err == "error: %s lists no utterances to score\n" % (
        tmp_path / "empty.tsv")
    assert not scores.exists()
    assert run("train-cm", *feats, "--manifest", tmp_path / "empty.tsv",
               "--out-model", tmp_path / "m2.mdl") == 1
    assert capsys.readouterr().err == "error: training needs both bonafide and spoof rows\n"


def test_score_cm_rejects_the_pooled_group_name(workspace, tmp_path, capsys):
    """An attack_id of 'ALL' would name a score-file group that eval rejects,
    so score-cm refuses it up front; extract and train-cm accept it."""
    for i in range(3):
        write_wav(tmp_path / ("u%d.wav" % i), tone(120 + 40 * i, dur=0.5))
    manifest = tmp_path / "m.tsv"
    write_manifest(manifest, [("u0", "s0", "bonafide", "-", "-", str(tmp_path / "u0.wav")),
                              ("u1", "s1", "spoof", "-", "ALL", str(tmp_path / "u1.wav")),
                              ("u2", "s2", "spoof", "-", "ALL", str(tmp_path / "u2.wav"))])
    feats, model = ["--features", "stft", "--feature-dir", tmp_path / "f"], tmp_path / "m.mdl"
    assert run("extract", "--manifest", manifest, "--feature", "stft",
               "--out-dir", tmp_path / "f") == 0
    assert run("train-cm", *feats, "--manifest", manifest, "--out-model", model,
               "--config", workspace / "fast.conf") == 0
    capsys.readouterr()
    scores = tmp_path / "s.tsv"
    assert run("score-cm", "--model", model, *feats, "--manifest", manifest,
               "--out-scores", scores) == 1
    assert capsys.readouterr().err == (
        "error: %s: utterance u1: attack_id 'ALL' is reserved for the pooled row\n" % manifest)
    assert not scores.exists()


def test_repeated_feature_kind_is_a_usage_error(workspace, tmp_path, capsys):
    """A kind named twice would pool its file twice and double its columns."""
    manifest, model = two_utt_manifest(tmp_path / "m.tsv"), tmp_path / "m.mdl"
    write_features(tmp_path / "f", "pse", {"u1": ("pse", np.full((1, 1), 0.5)),
                                           "u2": ("pse", np.full((1, 1), 0.7))})
    feats = ["--manifest", manifest, "--feature-dir", tmp_path / "f"]
    assert run("train-cm", "--features", "pse", *feats, "--out-model", model,
               "--config", workspace / "fast.conf") == 0
    for spec, kind in (("pse,pse", "pse"), ("stft, pse ,mfcc,pse", "pse"),
                       ("stft,pse,stft", "stft")):
        capsys.readouterr()
        assert run("train-cm", "--features", spec, *feats,
                   "--out-model", tmp_path / "m2.mdl") == 2
        assert capsys.readouterr().err.endswith(
            "error: --features names kind %r twice\n" % kind)
        assert run("score-cm", "--model", model, "--features", spec, *feats,
                   "--out-scores", tmp_path / "s.tsv") == 2
        assert capsys.readouterr().err.endswith(
            "error: --features names kind %r twice\n" % kind)
    assert not (tmp_path / "m2.mdl").exists() and not (tmp_path / "s.tsv").exists()


def test_score_cm_checks_the_model_width_once(workspace, tmp_path, capsys):
    manifest, model = two_utt_manifest(tmp_path / "m.tsv"), tmp_path / "m.mdl"
    (tmp_path / "f").mkdir()
    for utt, value in (("u1", 0.5), ("u2", 0.7)):
        write_feature(tmp_path / "f" / ("%s.pse.ssft" % utt),
                      FeatureMatrix("pse", np.full((1, 1), value), 0.0))
        write_feature(tmp_path / "f" / ("%s.jitter-shimmer.ssft" % utt),
                      FeatureMatrix("jitter-shimmer", np.full((1, 2), value / 10), 0.0))
    feats = ["--manifest", manifest, "--feature-dir", tmp_path / "f"]
    assert run("train-cm", "--features", "pse", *feats, "--out-model", model,
               "--config", workspace / "fast.conf") == 0
    capsys.readouterr()
    scores = tmp_path / "s.tsv"
    assert run("score-cm", "--model", model, "--features", " jitter-shimmer,pse", *feats,
               "--out-scores", scores) == 1
    assert capsys.readouterr().err == (
        "error: model %s has input dim 1, but --features jitter-shimmer,pse pools "
        "vectors of dim 3\n" % model)
    assert not scores.exists()


def test_train_bad_kind_list(workspace, tmp_path):
    assert run("train-cm", "--features", "pse,alien", "--manifest", workspace / "manifest.tsv",
               "--feature-dir", workspace / "feats", "--out-model", tmp_path / "m.mdl") == 2


def test_pairs_and_score_asv(workspace, tmp_path):
    rows = []
    for s in ("T1", "T2"):
        for i in range(2):
            rows.append(("%sr%d" % (s, i), s, "target-real", "-", "-", "x.wav"))
    rows.append(("imp0", "I1", "impersonation", "T1", "-", "x.wav"))
    write_manifest(tmp_path / "asv.tsv", rows)

    out = tmp_path / "trials.tsv"
    assert run("pairs", "--manifest", tmp_path / "asv.tsv", "--category", "all",
               "--out", out) == 0
    n_all = len(out.read_text().splitlines())
    assert n_all == 2 + 4 + 2  # R + RI + TI

    s1 = tmp_path / "s1.tsv"
    assert run("pairs", "--manifest", tmp_path / "asv.tsv", "--category", "all",
               "--out", s1, "--sample", 4, "--seed", 7) == 0
    s2 = tmp_path / "s2.tsv"
    assert run("pairs", "--manifest", tmp_path / "asv.tsv", "--category", "all",
               "--out", s2, "--sample", 4, "--seed", 7) == 0
    assert s1.read_bytes() == s2.read_bytes()

    assert run("pairs", "--manifest", tmp_path / "asv.tsv", "--category", "IRAB",
               "--out", tmp_path / "x.tsv") == 1  # no impersonator-real rows

    emb = tmp_path / "emb.txt"
    rng = np.random.default_rng(0)
    with open(emb, "w") as fh:
        fh.write("dim=4\n")
        for r in rows:
            fh.write("%s\t%s\n" % (r[0], " ".join("%.6g" % v for v in rng.normal(size=4))))
    scores = tmp_path / "asv.scores"
    assert run("score-asv", "--pairs", out, "--embeddings", emb,
               "--out-scores", scores) == 0
    assert len(scores.read_text().splitlines()) == n_all
    assert run("eval", "--scores", scores) == 0


@pytest.mark.parametrize("sample", [0, -1])
def test_pairs_rejects_sample_below_one(tmp_path, sample, capsys):
    rows = [("t%d" % i, "T", "target-real", "-", "-", "x.wav") for i in range(3)]
    write_manifest(tmp_path / "asv.tsv", rows)
    out = tmp_path / "trials.tsv"
    assert run("pairs", "--manifest", tmp_path / "asv.tsv", "--category", "all",
               "--out", out, "--sample", sample) == 2
    assert "--sample must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_pairs_rejects_negative_seed(tmp_path, capsys):
    rows = [("t%d" % i, "T", "target-real", "-", "-", "x.wav") for i in range(3)]
    write_manifest(tmp_path / "asv.tsv", rows)
    out = tmp_path / "trials.tsv"
    assert run("pairs", "--manifest", tmp_path / "asv.tsv", "--category", "all",
               "--out", out, "--sample", 2, "--seed", -1) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# int() reads each of these: as 10, 1 and 10
@pytest.mark.parametrize("text", ["1_0", "١", "1٠"])
@pytest.mark.parametrize("option", ["--jobs", "--sample", "--seed"])
def test_integer_options_take_plain_text_only(workspace, tmp_path, option, text, capsys):
    out = tmp_path / "out"
    if option == "--jobs":
        argv = ["extract", "--manifest", workspace / "manifest.tsv", "--feature", "f0",
                "--out-dir", out, "--jobs", text]
    else:
        rows = [("t%d" % i, "T", "target-real", "-", "-", "x.wav") for i in range(3)]
        write_manifest(tmp_path / "asv.tsv", rows)
        argv = ["pairs", "--manifest", tmp_path / "asv.tsv", "--category", "R",
                "--out", out, option, text]
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "spoofsense %s: error: argument %s: invalid int value: '%s'" % (
        argv[0], option, text)
    assert not out.exists()


@pytest.mark.parametrize("trials", ["", "\n \t\n"], ids=["empty", "blank-lines"])
def test_score_asv_empty_trial_list_exits_one(tmp_path, capsys, trials):
    (tmp_path / "trials.tsv").write_text(trials)
    (tmp_path / "emb.txt").write_text("dim=2\nt0\t1 0\n")
    scores = tmp_path / "asv.scores"
    assert run("score-asv", "--pairs", tmp_path / "trials.tsv", "--embeddings",
               tmp_path / "emb.txt", "--out-scores", scores) == 1
    assert capsys.readouterr().err == "error: %s lists no trials\n" % (tmp_path / "trials.tsv")
    assert not scores.exists()


def test_score_asv_huge_embedding_dim_exits_one(tmp_path, capsys):
    (tmp_path / "trials.tsv").write_text("t0\tt1\tpositive\tR\n")
    (tmp_path / "emb.txt").write_text("dim=99999999999999999999\n")
    scores = tmp_path / "asv.scores"
    assert run("score-asv", "--pairs", tmp_path / "trials.tsv", "--embeddings",
               tmp_path / "emb.txt", "--out-scores", scores) == 1
    assert capsys.readouterr().err == (
        "error: %s line 1: dimension 99999999999999999999 exceeds any array's size\n"
        % (tmp_path / "emb.txt"))
    assert not scores.exists()


@pytest.mark.parametrize("trials, emb, at_fault, message", [
    ("t0\tt1\tpositive\n", "dim=3\nt0\t1 2 3\nt1\t1 2\n", "trials.tsv",
     "line 1: expected 4 fields"),
    ("t0\tt1\tpositive\tR\n", "dim=3\nt0\t1 2 3\nt1\t1 2\n", "emb.txt",
     "line 3: expected 3 values, got 2"),
])
def test_table_errors_name_their_file(tmp_path, capsys, trials, emb, at_fault, message):
    """With two inputs, an error says which file is at fault."""
    (tmp_path / "trials.tsv").write_text(trials)
    (tmp_path / "emb.txt").write_text(emb)
    assert run("score-asv", "--pairs", tmp_path / "trials.tsv", "--embeddings",
               tmp_path / "emb.txt", "--out-scores", tmp_path / "asv.scores") == 1
    assert capsys.readouterr().err == "error: %s %s\n" % (tmp_path / at_fault, message)


@pytest.mark.parametrize("rows, message", [
    ([("u1", "s", "impersonation", "-", "-", "x.wav")],
     "line 2: impersonation row u1 has no mimicked_target_id"),
    ([("u1", "s", "target-real", "-", "-", "x.wav"), ("u2", "s", "target-real", "-", "-", "y.wav"),
      ("u1", "s", "target-real", "-", "-", "z.wav")],
     "line 4: duplicate utt_id 'u1'"),
], ids=["mimicked-missing", "duplicate"])
def test_manifest_errors_name_file_and_fault(tmp_path, capsys, rows, message):
    write_manifest(tmp_path / "m.tsv", rows)
    out = tmp_path / "trials.tsv"
    assert run("pairs", "--manifest", tmp_path / "m.tsv", "--category", "all", "--out", out) == 1
    assert capsys.readouterr().err == "error: %s %s\n" % (tmp_path / "m.tsv", message)
    assert not out.exists()


def test_embeddings_duplicate_names_file_and_line(tmp_path, capsys):
    (tmp_path / "trials.tsv").write_text("t0\tt1\tpositive\tR\n")
    (tmp_path / "emb.txt").write_text("dim=2\nt0\t1 0\n\nt1\t0 1\nt0\t1 1\n")
    assert run("score-asv", "--pairs", tmp_path / "trials.tsv", "--embeddings",
               tmp_path / "emb.txt", "--out-scores", tmp_path / "asv.scores") == 1
    assert capsys.readouterr().err == (
        "error: %s line 5: duplicate utt_id 't0'\n" % (tmp_path / "emb.txt"))


@pytest.mark.parametrize("scores, message", [
    ("", "no trials"),
    ("\n \t\n\n", "no trials"),
    ("s0\tA01\tspoof\t1.5\ns1\tA01\tspoof\t-0.5\n",
     "group A01 has 0 positive and 2 negative trials"),
    ("b0\t-\tbonafide\t1.5\ns0\tA01\tspoof\t0.5\ns1\tA02\tbonafide\t2\n",
     "group A02 has 2 positive and 0 negative trials"),
    ("b0\t-\tbonafide\t1.5\nb1\t-\ttarget\t0.5\n",
     "group ALL has 2 positive and 0 negative trials"),
], ids=["empty", "blank-lines", "no-shared-pool", "no-negative", "pooled-only"])
@pytest.mark.parametrize("metric", ["eer", "tdcf"])
def test_eval_degenerate_file_names_file_and_group(tmp_path, capsys, scores, message, metric):
    path = tmp_path / "s.scores"
    path.write_text(scores)
    out = tmp_path / "report.csv"
    cost = ["--metric", "tdcf", "--cost-config", CONFIGS / "tdcf_example.conf"]
    assert run("eval", "--scores", path, "--out", out, *(cost if metric == "tdcf" else [])) == 1
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, message)
    assert not out.exists()


@pytest.mark.parametrize("bad", ["manifest", "config", "scores", "trials", "embeddings"])
def test_non_utf8_input_exits_one(tmp_path, capsys, bad):
    rows = [("t%d" % i, "T%d" % (i % 2), "target-real", "-", "-", "x.wav") for i in range(4)]
    write_manifest(tmp_path / "manifest", rows)
    (tmp_path / "trials").write_text("t0\tt2\tpositive\tR\nt0\tt1\tnegative\tRI\n")
    (tmp_path / "embeddings").write_text(
        "dim=2\n" + "".join("t%d\t1 %d\n" % (i, i) for i in range(4)))
    (tmp_path / "scores").write_text(
        "b0\t-\tbonafide\t1.5\nb1\t-\tbonafide\t0.5\ns0\tA01\tspoof\t-1\ns1\tA01\tspoof\t0.7\n")
    (tmp_path / "config").write_bytes(CONFIGS.joinpath("tdcf_example.conf").read_bytes())
    out = tmp_path / "out"
    pairs = ["pairs", "--manifest", tmp_path / "manifest", "--category", "all", "--out", out]
    score_asv = ["score-asv", "--pairs", tmp_path / "trials",
                 "--embeddings", tmp_path / "embeddings", "--out-scores", out]
    eval_tdcf = ["eval", "--scores", tmp_path / "scores", "--metric", "tdcf",
                 "--cost-config", tmp_path / "config", "--out", out]
    argv = {"manifest": pairs, "trials": score_asv, "embeddings": score_asv,
            "scores": eval_tdcf, "config": eval_tdcf}[bad]
    assert run(*argv) == 0
    out.unlink()

    raw = (tmp_path / bad).read_bytes()
    cut = raw.index(b"\n") + 1
    (tmp_path / bad).write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err
    assert str(tmp_path / bad) in err  # the file at fault, among several inputs
    assert not out.exists()


def test_pse_report_cli(workspace, tmp_path):
    out = tmp_path / "pse.csv"
    assert run("pse-report", "--manifest", workspace / "manifest.tsv", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "utt_id,label,pse"
    assert len([l for l in lines if not l.startswith("#")]) == 7  # header + 6 utts


def test_pse_report_flags_errors(tmp_path, capsys):
    write_wav(tmp_path / "good.wav", tone(150))
    (tmp_path / "bad.wav").write_bytes(b"not a wav")
    write_manifest(
        tmp_path / "m.tsv",
        [
            ("u1", "s1", "bonafide", "-", "-", str(tmp_path / "good.wav")),
            ("u2", "s1", "spoof", "-", "-", str(tmp_path / "bad.wav")),
        ],
    )
    out = tmp_path / "pse.csv"
    assert run("pse-report", "--manifest", tmp_path / "m.tsv", "--out", out) == 0
    assert capsys.readouterr().out == "pse-report: 1 ok, 1 errors\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "utt_id,label,pse"
    assert lines[1].startswith("u1,bonafide,") and lines[1] != "u1,bonafide,error"
    assert lines[2].startswith("u2,spoof,error")
    assert any(l.startswith("#histogram,bonafide") for l in lines)


def test_pse_report_prints_failure_reasons(tmp_path, capsys, monkeypatch):
    """Each failed utterance's reason goes to stderr, in the FAIL line that
    extract prints; stdout, the CSV and the exit code stay as they were.
    Failures collected on two threads are printed in utt_id order too."""
    write_wav(tmp_path / "good.wav", tone(150))
    (tmp_path / "bad.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    write_manifest(tmp_path / "m.tsv", [
        ("u1", "s1", "bonafide", "-", "-", str(tmp_path / "good.wav")),
        ("u2", "s1", "spoof", "-", "-", str(tmp_path / "bad.wav")),
        ("u3", "s1", "spoof", "-", "-", str(tmp_path / "missing.wav")),
    ])
    assert run("extract", "--manifest", tmp_path / "m.tsv", "--feature", "pse",
               "--out-dir", tmp_path / "f", "--keep-going") == 0
    fails = capsys.readouterr().err
    assert fails.splitlines()[0].startswith("FAIL u2: MalformedRiff: ")
    assert fails.splitlines()[1].startswith("FAIL u3: FileNotFoundError: ")
    assert len(fails.splitlines()) == 2

    out = tmp_path / "pse.csv"
    assert run("pse-report", "--manifest", tmp_path / "m.tsv", "--out", out) == 0
    assert capsys.readouterr() == ("pse-report: 1 ok, 2 errors\n", fails)
    lines = out.read_text().splitlines()
    assert lines[2:4] == ["u2,spoof,error", "u3,spoof,error"]

    # two more failures, the rows out of utt_id order, and two rows at once
    (tmp_path / "text.wav").write_bytes(b"not a RIFF file")
    write_manifest(tmp_path / "m2.tsv", [
        ("u3", "s1", "spoof", "-", "-", str(tmp_path / "missing.wav")),
        ("u4", "s1", "spoof", "-", "-", str(tmp_path / "text.wav")),
        ("u1", "s1", "bonafide", "-", "-", str(tmp_path / "good.wav")),
        ("u0", "s1", "spoof", "-", "-", str(tmp_path / "missing.wav")),
        ("u2", "s1", "spoof", "-", "-", str(tmp_path / "bad.wav")),
    ])
    monkeypatch.setattr(audio, "_helpers", HELPERS)
    runs = []
    for jobs in (1, 2):
        assert run("extract", "--manifest", tmp_path / "m2.tsv", "--feature", "pse",
                   "--out-dir", tmp_path / ("f%d" % jobs), "--keep-going", "--jobs", jobs) == 0
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]
    assert runs[0].out == "extract pse: 1 ok, 4 failed\n"
    assert [line.split(":")[0] for line in runs[0].err.splitlines()] == [
        "FAIL u0", "FAIL u2", "FAIL u3", "FAIL u4"]


def test_implausible_header_rate_fails_its_row(workspace, tmp_path, capsys):
    """A header rate outside audio.RATES fails its row with a typed error
    before resampling asks for more memory than there is: 320 GiB of filter
    taps from 2147483647 Hz.  The good row's file is still written.  Which
    rates are rejected is test_audio's to check."""
    rate = 2147483647
    (tmp_path / "bad.wav").write_bytes(wav_at_rate(rate))
    write_manifest(tmp_path / "m.tsv", [
        ("bad", "s1", "spoof", "-", "-", str(tmp_path / "bad.wav")),
        ("good", "s1", "bonafide", "-", "-", str(workspace / "bona0.wav")),
    ])
    args = ["extract", "--manifest", tmp_path / "m.tsv", "--feature", "f0",
            "--out-dir", tmp_path / "f"]
    fail = "FAIL bad: UnsupportedEncoding: sample rate %d Hz, outside 1000-768000 Hz\n" % rate
    assert run(*args) == 1
    assert capsys.readouterr() == ("extract f0: 1 ok, 1 failed\n", fail)
    assert run(*args, "--keep-going") == 0
    assert capsys.readouterr().err == fail
    assert sorted(os.listdir(tmp_path / "f")) == ["good.f0.ssft"]


def test_implausible_sample_rate_config_fails_before_any_row(workspace, tmp_path, capsys):
    conf = tmp_path / "rate.conf"
    conf.write_text("sample_rate = 1000000000\n")
    assert run("extract", "--manifest", workspace / "manifest.tsv", "--feature", "f0",
               "--out-dir", tmp_path / "f", "--config", conf, "--keep-going") == 1
    assert capsys.readouterr() == ("", "error: %s: sample_rate must be <= 768000\n" % conf)
    assert not (tmp_path / "f").exists()


def test_pse_report_bad_f0_band_is_an_error_row(workspace, tmp_path, capsys):
    # a ceiling above Nyquist fails each utterance's F0 tracking, as in extract
    conf = tmp_path / "ceil.conf"
    conf.write_text("f0_ceil = 9000\n")
    out = tmp_path / "pse.csv"
    assert run("extract", "--manifest", workspace / "manifest.tsv", "--feature", "pse",
               "--out-dir", tmp_path / "f", "--config", conf) == 1
    assert "FAIL bona0: ValueError: need 0 < floor < ceil <= Nyquist" in capsys.readouterr().err
    assert run("pse-report", "--manifest", workspace / "manifest.tsv", "--out", out,
               "--config", conf) == 1
    assert capsys.readouterr().out == "pse-report: 0 ok, 6 errors\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "utt_id,label,pse"
    assert len(lines) == 7 and all(l.endswith(",error") for l in lines[1:])


def test_huge_f0_hop_fails_per_utterance(tmp_path, capsys):
    # a hop no sample index can hold fails each F0-based kind with a typed
    # error, where jitter-shimmer used to overflow out of cli.main
    write_wav(tmp_path / "t.wav", tone(150))
    write_manifest(tmp_path / "m.tsv",
                   [("u1", "s1", "bonafide", "-", "-", str(tmp_path / "t.wav"))])
    conf = tmp_path / "hop.conf"
    conf.write_text("f0_hop = 1e300\n")
    for kind in ("jitter-shimmer", "f0", "sp", "ap", "pse"):
        assert run("extract", "--manifest", tmp_path / "m.tsv", "--feature", kind,
                   "--out-dir", tmp_path / "f", "--config", conf) == 1
        assert "FAIL u1: InputTooShort: no signal holds frames" in capsys.readouterr().err
    assert not (tmp_path / "f" / "u1.jitter-shimmer.ssft").exists()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_non_finite_wav_sample_fails_per_utterance(tmp_path, kind, capsys):
    # every kind fails the utterance with the reader's typed error, instead
    # of computing features from the NaN or failing later, untyped, in the store
    x = tone(150).samples.astype(np.float32)
    x[8000] = np.nan
    (tmp_path / "t.wav").write_bytes(wav_bytes(x, fmt_code=3, bits=32))
    write_manifest(tmp_path / "m.tsv",
                   [("u1", "s1", "bonafide", "-", "-", str(tmp_path / "t.wav"))])
    assert run("extract", "--manifest", tmp_path / "m.tsv", "--feature", kind,
               "--out-dir", tmp_path / "f") == 1
    assert ("FAIL u1: CorruptPayload: non-finite float sample at index 8000"
            in capsys.readouterr().err)
    assert not (tmp_path / "f" / ("u1.%s.ssft" % kind)).exists()


def test_data_errors_exit_one(tmp_path):
    assert run("pairs", "--manifest", tmp_path / "nope.tsv", "--category", "R",
               "--out", tmp_path / "o.tsv") == 1
    assert run("eval", "--scores", tmp_path / "nope.tsv") == 1
