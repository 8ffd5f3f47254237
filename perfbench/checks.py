"""Output checks, written against the file formats rather than spoofsense.

Each check returns (name, ok, detail).  The feature-file reader below
parses the documented .ssft layout itself, so a bug in spoofsense.store
cannot hide a wrong output.
"""

import csv
import hashlib
import math
import os
import statistics
import struct

from inputs import KIND_DIMS, KINDS, UTTERANCE_LEVEL

EER_TOLERANCE = 0.01  # ~4 sampling standard deviations at 20k bonafide rows


def read_ssft(path):
    """(kind, dims, frames, values) of an SSFT1 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != b"SSFT1":
        raise ValueError("bad magic in %s" % path)
    klen = raw[5]
    kind = raw[6 : 6 + klen].decode("ascii")
    dims, frames, _hop = struct.unpack_from("<IId", raw, 6 + klen)
    body = raw[6 + klen + 16 :]
    if len(body) != 4 * dims * frames:
        raise ValueError("payload size mismatch in %s" % path)
    return kind, dims, frames, struct.unpack("<%df" % (dims * frames), body)


def digest(root):
    """sha256 over every file name and content under root, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _report(path):
    with open(path, newline="") as fh:
        return {r["group"]: r for r in csv.DictReader(fh)}


def _check_counts(name, report, expected):
    """expected: {group: (n_pos, n_neg)}; the report must hold exactly those."""
    got = {g: (int(r["n_pos"]), int(r["n_neg"])) for g, r in report.items()}
    return (name, got == expected, "got %s" % sorted(got.items()))


def check_extract(spec, out):
    checks, pse = [], {"natural": [], "machine": []}
    for u in spec["utts"]:
        frames = {}
        for kind in KINDS:
            path = os.path.join(out, "%s.%s.ssft" % (u["utt"], kind))
            try:
                k, dims, n, values = read_ssft(path)
            except (OSError, ValueError) as e:
                checks.append(("dims %s %s" % (u["utt"], kind), False, str(e)))
                continue
            want_frames = n == 1 if kind in UTTERANCE_LEVEL else n >= 1
            checks.append(("dims %s %s" % (u["utt"], kind),
                           k == kind and dims == KIND_DIMS[kind] and want_frames,
                           "%s %dx%d" % (k, n, dims)))
            frames[kind] = n
            if kind == "pse":
                pse[u["style"]].append(values[0])
        got = [frames.get(k) for k in ("f0", "sp", "ap")]
        checks.append(("frames %s" % u["utt"], got == [u["f0_frames"]] * 3,
                       "f0/sp/ap %s, want %d" % (got, u["f0_frames"])))
    nat = statistics.median(pse["natural"]) if pse["natural"] else float("nan")
    mach = statistics.median(pse["machine"]) if pse["machine"] else float("nan")
    checks.append(("pse natural > machine", nat > mach, "%.6g vs %.6g" % (nat, mach)))
    return checks


def check_cm(spec, out):
    checks = []
    with open(os.path.join(out, "cm.mdl.losses.txt")) as fh:
        losses = [float(v) for v in fh.read().split()]
    checks.append(("loss history", len(losses) == spec["epochs"]
                   and all(math.isfinite(v) for v in losses),
                   "%d entries, last %s" % (len(losses), losses[-1:])))
    with open(spec["manifest"]) as fh:
        utts = [line.split("\t", 1)[0] for line in fh.read().splitlines()[1:]]
    with open(os.path.join(out, "cm.scores")) as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    ok = [r[0] for r in rows] == utts and all(math.isfinite(float(r[3])) for r in rows)
    checks.append(("one finite score per row", ok, "%d rows" % len(rows)))
    want = {a: (spec["n_bonafide"], n) for a, n in spec["attacks"].items()}
    want["ALL"] = (spec["n_bonafide"], sum(spec["attacks"].values()))
    checks.append(_check_counts("tdcf report counts", _report(os.path.join(out, "cm_tdcf.csv")), want))
    return checks


def check_eval(spec, out):
    checks = []
    want = {a: (spec["cm_bonafide"], n) for a, n in spec["attacks"].items()}
    want["ALL"] = (spec["cm_bonafide"], sum(spec["attacks"].values()))
    for metric in ("eer", "tdcf"):
        rep = _report(os.path.join(out, "cm_%s.csv" % metric))
        checks.append(_check_counts("cm %s report counts" % metric, rep, want))
        got = float(rep["ALL"]["eer"]) if "ALL" in rep else float("nan")
        checks.append(("cm %s ALL eer ~ Phi(-d/2)" % metric,
                       abs(got - spec["eer_expected"]) <= EER_TOLERANCE,
                       "%.6g vs %.6g" % (got, spec["eer_expected"])))

    counts = spec["trial_counts"]
    per_cat = dict.fromkeys(counts, 0)
    with open(os.path.join(out, "trials.tsv")) as fh:
        for line in fh:
            per_cat[line.rstrip("\n").split("\t")[3]] += 1
    checks.append(("pairs per category", per_cat == counts, str(per_cat)))
    with open(os.path.join(out, "asv.scores")) as fh:
        scored = sum(1 for _ in fh)
    checks.append(("trials scored", scored == sum(counts.values()), str(scored)))
    n_pos = counts["R"] + counts["IAB"]
    want = {c: (n_pos, n) for c, n in counts.items() if c not in ("R", "IAB")}
    want["ALL"] = (n_pos, sum(want[c][1] for c in want))
    checks.append(_check_counts("asv report counts", _report(os.path.join(out, "asv_eer.csv")), want))
    return checks


CHECKS = {"extract-all": check_extract, "cm-train-score": check_cm, "eval-asv": check_eval}
