"""Command-line pipeline: extract → pairs/train → score → eval.

Stages communicate through files only, so each command is independently
rerunnable and byte-deterministic given the same inputs, config, and seed.
Exit codes: 0 success, 1 data/runtime error, 2 usage error.
"""

import argparse
import io
import os
import sys

import numpy as np

from .audio import read_wav, resample, run_tasks
from .config import load_config
from .entropy import write_pse_report
from .errors import (
    CorruptPayload,
    DimMismatch,
    EmptyDataset,
    InputTooShort,
    KindDimsMismatch,
    MissingFeatureFile,
    ParseError,
    SpoofsenseError,
)
from .metrics import POOLED, Column, ScoreTable, evaluate_scorefile, write_report
from .mlp import init_model, load_model, save_model, score, train
from .spectral import KINDS
from .store import read_payload, write_feature
from .trials import (
    CATEGORIES,
    CLASS_OF_ROLE,
    build_all_pairs,
    build_pairs,
    load_embeddings,
    load_manifest,
    load_trials,
    sample_pairs,
    save_trials,
    score_trials,
    write_scorefile,
)
from .tsv import create_text, plain, write_rows

CLASS_NAMES = ("bonafide", "spoof")


def _feature_path(out_dir, utt_id, feature):
    return os.path.join(out_dir, "%s.%s.ssft" % (utt_id, feature))


def _extract_all(rows, feature, cfg, keep, jobs=1):
    """Decode, resample and compute `feature` for each row, and pass each
    FeatureMatrix to keep(utt_id, m).  Returns the (utt_id, message) of each
    failed row, sorted by utt_id, and prints each to stderr as a FAIL line.

    run_tasks shares the rows between the calling thread and the block
    helpers, at most `jobs` at once; a row's kernels share their blocks with
    any helper left idle.  perfbench's tracer nests spans on one thread
    only, so a traced run passes jobs=1, which runs every row on the
    calling thread."""
    failures = []  # list.append is atomic: each failed row appends its own

    def one(row):
        try:
            m = KINDS[feature].compute(resample(read_wav(row.path), cfg.sample_rate), cfg)
            keep(row.utt_id, m)
        except (SpoofsenseError, OSError, ValueError) as e:
            failures.append((row.utt_id, "%s: %s" % (type(e).__name__, e)))

    run_tasks(one, rows, jobs)
    failures.sort()  # utt_ids are unique
    for utt, msg in failures:
        print("FAIL %s: %s" % (utt, msg), file=sys.stderr)
    return failures


def cmd_extract(args, parser):
    if args.jobs < 1:
        parser.error("--jobs must be >= 1, got %d" % args.jobs)
    cfg = load_config(args.config)
    manifest = load_manifest(args.manifest)
    os.makedirs(args.out_dir, exist_ok=True)

    failures = _extract_all(manifest.rows, args.feature, cfg, lambda utt, m: write_feature(
        _feature_path(args.out_dir, utt, args.feature), m), args.jobs)
    print("extract %s: %d ok, %d failed"
          % (args.feature, len(manifest) - len(failures), len(failures)))
    if failures and not args.keep_going:
        return 1
    return 0


def cmd_pairs(args, parser):
    if args.sample is not None and args.sample < 1:
        parser.error("--sample must be >= 1, got %d" % args.sample)
    if args.seed < 0:
        parser.error("--seed must be >= 0, got %d" % args.seed)
    manifest = load_manifest(args.manifest)
    if args.category == "all":
        ts = build_all_pairs(manifest)
    else:
        ts = build_pairs(manifest, args.category)
    if args.sample is not None:
        ts = sample_pairs(ts, args.sample, seed=args.seed)
    save_trials(args.out, ts)
    print("pairs %s: %d trials" % (args.category, len(ts)))
    return 0


def _kind_table(kinds, feature_dir):
    """(kind, prefix, suffix, utterance-level?) of each kind, looked up once
    per command rather than once per file.  An utterance's file is prefix +
    utt_id + suffix: _feature_path, since a manifest's utt_id holds no '/'."""
    prefix = os.path.join(feature_dir, "")
    return [(kind, prefix, ".%s.ssft" % kind, KINDS[kind].utterance_level) for kind in kinds]


def _pooled_vector(utt_id, table):
    """Concatenate per-kind vectors: an utterance-level kind's one row, or a
    frame-level kind's frames mean-pooled in float64.

    Each part is checked as it is made, so the first faulty file is the one
    reported.  A float64 sum of float32 values cannot overflow, so a part is
    finite exactly when every entry of its file is.
    """
    parts = []
    for kind, prefix, suffix, utterance_level in table:
        path = prefix + utt_id + suffix
        try:
            tag, _, data = read_payload(path)
        except FileNotFoundError:
            raise MissingFeatureFile(path) from None
        if tag != kind:
            raise KindDimsMismatch("%s holds kind %r, not %r" % (path, tag, kind))
        n = len(data)
        if n == 0:
            raise InputTooShort("0-frame feature file %s" % path)
        if not utterance_level:  # mean(axis=0) of the widened frames
            part = np.add.reduce(data.astype(np.float64), 0) / n
        elif n == 1:
            part = data[0].astype(np.float64)
        else:
            raise KindDimsMismatch("%s holds %d rows, utterance-level kind %r holds 1"
                                   % (path, n, kind))
        if not np.isfinite(part).all():
            raise CorruptPayload("feature data contains non-finite entries: %s" % path)
        parts.append(part)
    return np.concatenate(parts)


def _parse_kinds(parser, spec_str):
    kinds = [k.strip() for k in spec_str.split(",") if k.strip()]
    if not kinds:
        parser.error("--features must name at least one feature kind")
    for i, k in enumerate(kinds):
        if k not in KINDS:
            parser.error("unknown feature kind %r (choose from %s)" % (k, ", ".join(KINDS)))
        if k in kinds[:i]:  # it would pool the same file twice
            parser.error("--features names kind %r twice" % k)
    return kinds


def _dataset(manifest, kinds, feature_dir):
    """Pooled vectors (one row per utterance) and their classes."""
    table = _kind_table(kinds, feature_dir)
    xs, ys = [], []
    for row in manifest.rows:
        xs.append(_pooled_vector(row.utt_id, table))
        ys.append(CLASS_OF_ROLE[row.role])
        if len(xs[-1]) != len(xs[0]):
            raise DimMismatch("%s: pooled vector of length %d, %s's has %d"
                              % (row.utt_id, len(xs[-1]), manifest.rows[0].utt_id, len(xs[0])))
    return np.array(xs), np.array(ys)


def cmd_train_cm(args, parser):
    kinds = _parse_kinds(parser, args.features)
    cfg = load_config(args.config)
    manifest = load_manifest(args.manifest)
    x, y = _dataset(manifest, kinds, args.feature_dir)
    if len(set(y.tolist())) < 2:
        raise EmptyDataset("training needs both bonafide and spoof rows")

    model = init_model((x.shape[1], cfg.hidden1, cfg.hidden2, 2),
                       activation=cfg.activation, seed=cfg.train.seed)
    trained, history = train(model, x, y, cfg.train)
    save_model(args.out_model, trained)
    write_rows(args.out_model + ".losses.txt", (["%.12g" % loss for loss in history],))
    print("train-cm: %d utts, dims %s, final loss %.6g"
          % (len(y), "x".join(str(d) for d in trained.dims), history[-1]))
    return 0


def cmd_score_cm(args, parser):
    kinds = _parse_kinds(parser, args.features)
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    if len(manifest) == 0:
        raise EmptyDataset("%s lists no utterances to score" % args.manifest)
    pooled = [r.utt_id for r in manifest.rows if r.attack_id == POOLED]
    if pooled:  # its score file would fail eval
        raise ParseError("utterance %s: attack_id %r is reserved for the pooled row"
                         % (pooled[0], POOLED), path=args.manifest)
    x, y = _dataset(manifest, kinds, args.feature_dir)
    if x.shape[1] != model.dims[0]:
        raise DimMismatch("model %s has input dim %d, but --features %s pools vectors of dim %d"
                          % (args.model, model.dims[0], ",".join(kinds), x.shape[1]))
    write_scorefile(args.out_scores, ScoreTable(
        trial_ids=[r.utt_id for r in manifest.rows],
        groups=Column.of([r.attack_id or "-" for r in manifest.rows]),
        labels=Column.of([CLASS_NAMES[c] for c in y.tolist()]),
        scores=score(model, x),
    ))
    print("score-cm: %d utterances scored" % len(manifest))
    return 0


def cmd_score_asv(args, parser):
    ts = load_trials(args.pairs)
    if len(ts) == 0:
        raise EmptyDataset("%s lists no trials" % args.pairs)
    emb = load_embeddings(args.embeddings)
    scored = score_trials(ts, emb)
    write_scorefile(args.out_scores, scored)
    print("score-asv: %d trials scored" % len(scored))
    return 0


def cmd_eval(args, parser):
    cost = None
    if args.metric == "tdcf":
        if args.cost_config is None:
            parser.error("--cost-config is required for --metric tdcf")
        cost = load_config(args.cost_config).cost_model(args.cost_config)
    elif args.cost_config is not None:
        parser.error("--cost-config applies to --metric tdcf only")
    reports = evaluate_scorefile(args.scores, cost)
    if args.out:
        with create_text(args.out) as fh:
            write_report(reports, fh)
        return 0
    text = io.StringIO()  # whole, so that a row stdout cannot encode writes none
    write_report(reports, text)
    try:
        sys.stdout.write(text.getvalue())
    except UnicodeEncodeError as e:
        bad = e.object[e.start:e.end]
        group = next(r.group for r in reports if bad in r.group)
        raise UnicodeEncodeError(e.encoding, e.object, e.start, e.end,
                                 "stdout cannot encode group %r" % group) from None
    return 0


def cmd_pse_report(args, parser):
    cfg = load_config(args.config)
    manifest = load_manifest(args.manifest)
    values = {}

    def keep(utt, m):
        values[utt] = float(m.data[0, 0])

    failures = _extract_all(manifest.rows, "pse", cfg, keep)
    with create_text(args.out) as fh:
        write_pse_report(values, {r.utt_id: r.role for r in manifest.rows}, fh)
    print("pse-report: %d ok, %d errors" % (len(values), len(failures)))
    return 0 if values else 1


def _integer(text):
    """int(text), as the argparse type of an integer option.  Text that is
    not plain is rejected as int() rejects 'x': int() also reads digit
    groups such as '1_0' and the digits of other scripts."""
    try:
        if plain(text):
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="spoofsense",
        description="Speech anti-spoofing feature extraction and evaluation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ext = sub.add_parser("extract", help="extract one feature kind over a manifest")
    ext.set_defaults(run=cmd_extract)
    ext.add_argument("--manifest", required=True)
    ext.add_argument("--feature", required=True, choices=KINDS)
    ext.add_argument("--out-dir", required=True)
    ext.add_argument("--config", default=None)
    ext.add_argument("--jobs", type=_integer, default=1)
    ext.add_argument("--keep-going", action="store_true",
                     help="log per-utterance failures but exit 0")

    pr = sub.add_parser("pairs", help="build speaker trial pairs from a manifest")
    pr.set_defaults(run=cmd_pairs)
    pr.add_argument("--manifest", required=True)
    pr.add_argument("--category", required=True,
                    choices=CATEGORIES + ("all",))
    pr.add_argument("--out", required=True)
    pr.add_argument("--sample", type=_integer, default=None)
    pr.add_argument("--seed", type=_integer, default=0)

    tr = sub.add_parser("train-cm", help="train the countermeasure MLP")
    tr.set_defaults(run=cmd_train_cm)
    tr.add_argument("--features", required=True,
                    help="comma-separated feature kinds, e.g. jitter-shimmer,pse")
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--feature-dir", required=True)
    tr.add_argument("--out-model", required=True)
    tr.add_argument("--config", default=None)

    sc = sub.add_parser("score-cm", help="score utterances with a trained model")
    sc.set_defaults(run=cmd_score_cm)
    sc.add_argument("--model", required=True)
    sc.add_argument("--manifest", required=True)
    sc.add_argument("--features", required=True)
    sc.add_argument("--feature-dir", required=True)
    sc.add_argument("--out-scores", required=True)

    sa = sub.add_parser("score-asv", help="cosine-score trial pairs from embeddings")
    sa.set_defaults(run=cmd_score_asv)
    sa.add_argument("--pairs", required=True)
    sa.add_argument("--embeddings", required=True)
    sa.add_argument("--out-scores", required=True)

    ev = sub.add_parser("eval", help="EER / min t-DCF report over a score file")
    ev.set_defaults(run=cmd_eval)
    ev.add_argument("--scores", required=True)
    ev.add_argument("--metric", default="eer", choices=("eer", "tdcf"))
    ev.add_argument("--cost-config", default=None)
    ev.add_argument("--out", default=None)

    ps = sub.add_parser("pse-report", help="entropy distribution report")
    ps.set_defaults(run=cmd_pse_report)
    ps.add_argument("--manifest", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--config", default=None)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, parser)
    except SystemExit as e:  # a usage error, in parse_args or a handler's parser.error
        return int(e.code or 0)
    except (SpoofsenseError, OSError, UnicodeEncodeError) as e:  # or a report stdout cannot encode
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
