"""Exact parity of the block-read manifest and embedding loaders with the
whole-file loaders they replace.

The whole-file versions below are the original load_manifest and
load_embeddings, kept as oracles and changed only in their names.  On
every input the loaders must give equal manifest rows, or equal ids and
bit-equal vectors, or raise the same exception class with the same message
and line; a ParseError's message now starts with the file's path, and the
rest of it must equal the oracle's.  The inputs hold no utt_id that is
empty or holds a '/': the manifest loader now rejects those (test_trials
covers it), and the oracle accepts them.  One embedding outcome has
changed on purpose: a dim= line too wide for any float64 array, in a file
with no rows, made the oracle's final reshape raise numpy's bare
ValueError, and is now a ParseError at line 1; the fuzz test compares with
load_embeddings_typed, the oracle with that one outcome replaced, and still
sends such files.  Two manifest and embedding messages have changed on
purpose, in the oracles too: a missing mimicked_target_id and a repeated
utt_id now read like any ParseError, "<path> line <N>: <what>", at the
line of the faulty row or of the repeat.  For that, load_manifest_whole
finds the first repeated utt_id itself, after every row has passed its own
checks, which is where Manifest found it.  The embedding oracle rejects a
value or dim= text that holds '_' or a non-ASCII character, as
load_embeddings does, with its messages: int() and float() read '1_0' as
10 and the digits of other scripts, which no number format writes.

The block reader reads tsv.BLOCK_CHARS characters at a time; the tests at
the bottom set that size as low as one character, so that every kind of
line, line end and fault meets a chunk edge, and compare with the oracles.
"""

import math
import random

import numpy as np
import pytest

from conftest import PAST_ONE_BLOCK, line_start
from spoofsense import tsv
from spoofsense.errors import DuplicateUttId, MissingMimickedTarget, ParseError
from spoofsense.trials import (
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    ROLES,
    Embeddings,
    Manifest,
    ManifestRow,
    load_embeddings,
    load_manifest,
)
from spoofsense.tsv import BLOCK_CHARS, open_text, read_lines

# ---------------------------------------------------------------- oracles


def _none_if_empty(s):
    return None if s in ("", "-") else s


def load_manifest_whole(path):
    with open_text(path) as fh:
        lines = fh.read().split("\n")  # an empty file is one blank line
    if lines == [""]:
        raise ParseError("empty manifest", line=1)
    header = lines[0].split("\t")
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise ParseError("missing column %r" % col, line=1)
    for i, col in enumerate(header):
        if col not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS:
            raise ParseError("unknown column %r" % col, line=1)
        if col in header[:i]:
            raise ParseError("duplicate column %r" % col, line=1)

    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ParseError(
                "expected %d fields, got %d" % (len(header), len(parts)), line=lineno
            )
        rec = dict(zip(header, parts))
        role = rec["role"]
        if role not in ROLES:
            raise ParseError("unknown role %r" % role, line=lineno)
        mim = _none_if_empty(rec.get("mimicked_target_id", ""))
        if role == "impersonation" and mim is None:
            raise MissingMimickedTarget(
                "impersonation row %s has no mimicked_target_id" % rec["utt_id"], line=lineno)
        if role != "impersonation" and mim is not None:
            raise ParseError(
                "mimicked_target_id only belongs on impersonation rows", line=lineno
            )
        rows.append(
            ManifestRow(
                utt_id=rec["utt_id"],
                speaker_id=rec["speaker_id"],
                role=role,
                path=rec["path"],
                mimicked_target_id=mim,
                attack_id=_none_if_empty(rec.get("attack_id", "")),
            )
        )
        linenos.append(lineno)
    seen = set()
    for row, lineno in zip(rows, linenos):
        if row.utt_id in seen:
            raise DuplicateUttId("duplicate utt_id %r" % row.utt_id, line=lineno)
        seen.add(row.utt_id)
    return Manifest(rows=rows)


def load_embeddings_whole(path):
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("dim="):
        raise ParseError("embedding file must start with dim=<d>", line=1)
    try:
        if not plain(lines[0][4:]):
            raise ValueError(lines[0])
        dim = int(lines[0][4:])
    except ValueError:
        raise ParseError("bad dimension %r" % lines[0], line=1) from None
    if dim < 1:
        raise ParseError("dimension must be >= 1", line=1)

    ids, rows = {}, []  # ids: an ordered set of the utt_ids
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        utt, _, rest = line.partition("\t")
        if not rest:
            raise ParseError("expected utt_id<TAB>values", line=lineno)
        if utt in ids:
            raise DuplicateUttId("duplicate utt_id %r" % utt, line=lineno)
        try:
            if not all(map(plain, rest.split())):
                raise ValueError(rest)
            v = [float(tok) for tok in rest.split()]
        except ValueError:
            raise ParseError("non-numeric embedding value", line=lineno) from None
        if len(v) != dim:
            raise ParseError("expected %d values, got %d" % (dim, len(v)), line=lineno)
        if not all(map(math.isfinite, v)):
            raise ParseError("non-finite embedding value", line=lineno)
        ids[utt] = None
        rows.append(v)
    return Embeddings(list(ids), np.array(rows, dtype=np.float64).reshape(len(rows), dim))


def plain(text):
    """float() and int() also read '1_0' and the digits of other scripts,
    which no number format has; the loaders reject such a text."""
    return text.isascii() and "_" not in text


def load_embeddings_typed(path):
    """load_embeddings_whole, with its one untyped failure replaced: only its
    final reshape raises a bare ValueError, on a dim no float64 array has."""
    try:
        return load_embeddings_whole(path)
    except ValueError:
        with open_text(path) as fh:
            dim = int(fh.read().split("\n")[0][4:])
        raise ParseError("dimension %d exceeds any array's size" % dim, line=1) from None


# ---------------------------------------------------------------- helpers

ENDS = ["\n", "\r\n", "\r"]
BLANKS = ["", " ", "\t", "  \t "]
DECODE_CHUNK = 8192  # bytes the text layer decodes at once


def outcome(fn, path):
    """("ok", result as comparable values) or ("raised", class, message, line,
    the path a ParseError names)."""
    try:
        result = fn(path)
    except Exception as e:  # parity covers every exception, not one class
        return ("raised", type(e), str(e), getattr(e, "line", None), getattr(e, "path", None))
    if isinstance(result, Embeddings):  # bytes, so -0.0 and 0.0 differ
        v = result.vectors
        return ("ok", result.ids, v.dtype, v.shape, v.tobytes())
    return ("ok", result.rows)


def check(path, new, old):
    """new's outcome on path, which must equal old's, except that the loaders
    name the file in a ParseError, or one of its subclasses: the path, a
    space, then the oracle's message.  A decode error comes from
    tsv.open_text, which the oracles share, and names the file already."""
    expected = outcome(old, path)
    if expected[0] == "raised" and issubclass(expected[1], ParseError) and expected[4] is None:
        expected = expected[:2] + ("%s %s" % (path, expected[2]), expected[3], path)
    assert outcome(new, path) == expected
    return expected


def encode(lines, rng, trailing=True):
    """lines as UTF-8, each ended by one random line end, or all by the same one."""
    if rng.random() < 0.3:
        ends = [rng.choice(ENDS) for _ in lines]
    else:
        ends = [rng.choice(ENDS)] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    if not trailing and lines:
        text = text[: -len(ends[-1])]
    return text.encode()


def with_blanks(lines, rng, first=1):
    """lines with a few blank or whitespace-only lines put in at positions >= first."""
    lines = list(lines)
    for _ in range(rng.randrange(5)):
        lines.insert(rng.randrange(first, len(lines) + 1), rng.choice(BLANKS))
    return lines


def write_fuzzed(path, lines, rng):
    """Write lines with random line ends, maybe no final one, and in a small
    file maybe an undecodable byte.  A byte past the first decoded chunk is
    left out: there the block reader may report an earlier row's fault first,
    as it does in a score file, where the whole-file read reports the byte."""
    data = encode(lines, rng, trailing=rng.random() < 0.8)
    if rng.random() < 0.05 and len(data) < DECODE_CHUNK:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    path.write_bytes(data)


def fault_count(rng):
    return rng.choice([0, 0, 1, 1, 1, 2])


def other(rows, k, rng):
    """A row other than rows[k], if there is one."""
    if len(rows) < 2:
        return rows[k]
    j = rng.randrange(len(rows) - 1)
    return rows[j + (j >= k)]


def row_count(rng):
    """Mostly small files; one in thirty runs past the first block (its rows
    are mostly longer than 16 characters)."""
    if rng.random() < 0.033:
        return BLOCK_CHARS // 16 + rng.randrange(1, 40)
    return rng.choice([0, 1, 3, 12, 40])


# ---------------------------------------------------------------- manifests

ROLE_NAMES = sorted(ROLES)
ID_FORMS = ["u%d", "U-%d", " u%d ", "ü%d", "a.%d", "-%d", "%d\x0c"]


def manifest_lines(rng):
    """A random manifest's lines, faulty or not: columns in any order, some
    optional, ids that are non-empty and hold no '/', and up to two faults
    of the header, a row's field count, role or mimicked target, or a
    repeated utt_id."""
    cols = list(REQUIRED_COLUMNS) + [c for c in OPTIONAL_COLUMNS if rng.random() < 0.7]
    rng.shuffle(cols)
    has_mim = "mimicked_target_id" in cols
    roles = ROLE_NAMES if has_mim else [r for r in ROLE_NAMES if r != "impersonation"]
    rows = []
    for i in range(row_count(rng)):
        role = rng.choice(roles)
        rows.append({
            "utt_id": rng.choice(ID_FORMS) % i,
            "speaker_id": "s%d" % rng.randrange(5),
            "role": role,
            "path": "wav/%d.wav" % i,
            "mimicked_target_id": "t%d" % rng.randrange(3) if role == "impersonation"
            else rng.choice(["", "-"]),
            "attack_id": rng.choice(["", "-", "A01", " A02"]),
        })
    header = list(cols)
    for _ in range(fault_count(rng)):
        if rng.random() < 0.2:
            header = MANIFEST_HEADER_FAULTS[rng.choice(sorted(MANIFEST_HEADER_FAULTS))](header, rng)
        elif rows:
            k = rng.randrange(len(rows))
            rows[k].update(MANIFEST_ROW_FAULTS[rng.choice(sorted(MANIFEST_ROW_FAULTS))](
                other(rows, k, rng), rng))
    fields = [[rec[c] for c in cols] + ["extra"] * rec.get("extra", 0) for rec in rows]
    lines = ["\t".join(header)] + ["\t".join(f[: len(f) - rec.get("fewer", 0)])
                                   for f, rec in zip(fields, rows)]
    return with_blanks(lines, rng, first=0 if rng.random() < 0.05 else 1)


def _drop(header, col):
    return [c for c in header if c != col]


MANIFEST_HEADER_FAULTS = {
    "header-missing": lambda h, rng: _drop(h, rng.choice(REQUIRED_COLUMNS)),
    "header-unknown": lambda h, rng: h + ["bogus"],
    "header-duplicate": lambda h, rng: h + [rng.choice(h)],
    "header-padded": lambda h, rng: [c + " " if c == "role" else c for c in h],
    "header-blank": lambda h, rng: [rng.choice(BLANKS)],
}
# each gives the fields it changes in a row, other being another row
MANIFEST_ROW_FAULTS = {
    "fields-fewer": lambda other, rng: {"fewer": 1},
    "fields-more": lambda other, rng: {"extra": 1},
    "role": lambda other, rng: {"role": rng.choice(["alien", "Spoof", " bonafide"])},
    "mimicked-missing": lambda other, rng: {"role": "impersonation",
                                            "mimicked_target_id": rng.choice(["", "-"])},
    "mimicked-misplaced": lambda other, rng: {"role": "spoof", "mimicked_target_id": "t9"},
    "duplicate": lambda other, rng: {"utt_id": other["utt_id"]},
}


@pytest.mark.parametrize("start", range(0, 1000, 200))
def test_manifest_fuzz_parity(tmp_path, start):
    path = tmp_path / "m.tsv"
    outcomes = set()
    for seed in range(start, start + 200):
        rng = random.Random(seed)
        if rng.random() < 0.02:
            path.write_bytes(b"")
        else:
            write_fuzzed(path, manifest_lines(rng), rng)
        result = check(path, load_manifest, load_manifest_whole)
        outcomes.add(result[1] if result[0] == "raised" else "ok")
    # the inputs reach rows, header faults and row faults alike
    assert {"ok", ParseError, MissingMimickedTarget, DuplicateUttId} <= outcomes


GOOD_HEADER = "utt_id\tspeaker_id\trole\tmimicked_target_id\tattack_id\tpath"


def good_manifest_row(i):
    role = ROLE_NAMES[i % len(ROLE_NAMES)]
    mim = "t%d" % (i % 3) if role == "impersonation" else "-"
    return "u%d\ts%d\t%s\t%s\t-\twav/%d.wav" % (i, i % 4, role, mim, i)


MANIFEST_LINE_FAULTS = {
    "fields": "bad\ts\tspoof\t-\t-",
    "role": "bad\ts\talien\t-\t-\tx.wav",
    "mimicked-missing": "bad\ts\timpersonation\t-\t-\tx.wav",
    "mimicked-misplaced": "bad\ts\tbonafide\tt1\t-\tx.wav",
    "duplicate": "u3\ts\tspoof\t-\t-\tx.wav",
}


def faulty_lines(header, good, fault, pos, n):
    """header, then n good rows, every 50th line blank, with fault put in
    after blank lines before row pos."""
    lines = [" " if i % 50 == 49 else good(i) for i in range(n)]
    lines[pos:pos] = ["", "  ", fault]
    return [header] + lines


def repeat_line(lines, utt):
    """The line number of utt's second row."""
    return [k + 1 for k, line in enumerate(lines) if line.split("\t")[0] == utt][1]


@pytest.mark.parametrize("kind", sorted(MANIFEST_LINE_FAULTS))
@pytest.mark.parametrize("pos", [0, 6, 12, PAST_ONE_BLOCK])
def test_manifest_fault_parity(tmp_path, kind, pos):
    path = tmp_path / "m.tsv"
    fault = MANIFEST_LINE_FAULTS[kind]
    lines = faulty_lines(GOOD_HEADER, good_manifest_row, fault, pos, max(12, pos))
    assert pos < PAST_ONE_BLOCK or line_start(lines, lines.index(fault)) > BLOCK_CHARS
    path.write_text("\n".join(lines) + "\n")
    result = check(path, load_manifest, load_manifest_whole)
    lineno = lines.index(fault) + 1
    if kind == "duplicate":
        lineno = repeat_line(lines, "u3")
        assert result[1:4] == (DuplicateUttId, "%s line %d: duplicate utt_id 'u3'" % (path, lineno),
                               lineno)
    elif kind == "mimicked-missing":
        assert result[1:4] == (MissingMimickedTarget, "%s line %d: impersonation row bad has no "
                               "mimicked_target_id" % (path, lineno), lineno)
    else:
        assert result[1] is ParseError and result[3] == lineno


@pytest.mark.parametrize("header", ["", "\n", " \n", "utt_id\tspeaker_id\trole\n",
                                    "utt_id\tspeaker_id\trole\tpath\tbogus\n",
                                    "utt_id\tspeaker_id\trole\tpath\trole\n"])
def test_manifest_header_parity(tmp_path, header):
    path = tmp_path / "m.tsv"
    path.write_text(header + "u1\ts\tbonafide\tx.wav\n")
    assert check(path, load_manifest, load_manifest_whole)[3] == 1
    path.write_text(header)
    assert check(path, load_manifest, load_manifest_whole)[3] == 1


# ---------------------------------------------------------------- embeddings

# value separators; all but the tab-free first field are whitespace to str.split
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0c", "\x1c"]
FORMATS = [repr, "%.3g".__mod__, "%.17g".__mod__, " {} ".format]
VALUES = [0.0, -0.0, 1.5, -2.25e-300, 3e300, 7.0]


def embedding_row(rng, utt, dim):
    values = [rng.choice(VALUES) if rng.random() < 0.2 else rng.gauss(0, 1)
              for _ in range(dim)]
    sep = rng.choice(SEPARATORS)
    return utt + "\t" + sep.join(rng.choice(FORMATS)(v) for v in values)


def embedding_lines(rng):
    """A random embedding file's lines, faulty or not: values split by any
    whitespace, and up to two faults of the dim line, a row's tab, values
    or count, or a repeated utt_id."""
    dim = rng.randrange(1, 5)
    header = rng.choice(["dim=%d", "dim=%d", "dim= %d ", "dim=%d\t"]) % dim
    rows = [embedding_row(rng, rng.choice(ID_FORMS) % i, dim) for i in range(row_count(rng))]
    for _ in range(fault_count(rng)):
        if rng.random() < 0.15:
            header = rng.choice(EMBEDDING_HEADER_FAULTS)
        elif rows:
            k = rng.randrange(len(rows))
            fault = EMBEDDING_ROW_FAULTS[rng.choice(sorted(EMBEDDING_ROW_FAULTS))]
            rows[k] = fault(rows[k], other(rows, k, rng), rng)
    return with_blanks([header] + rows, rng, first=0 if rng.random() < 0.05 else 1)


def _with_values(row, change):
    """row with its values, split at whitespace, passed through change."""
    utt, _, rest = row.partition("\t")
    return utt + "\t" + " ".join(change(rest.split()))


NON_NUMERIC = ["x", "0x10", "1,5", "--1", "1_0", "\u0661", "2\u00b2"]
NON_FINITE = ["inf", "-inf", "nan", "1e999"]
EMBEDDING_HEADER_FAULTS = ["", " dim=2", "DIM=2", "dim=", "dim=x", "dim=2.0", "dim=0", "dim=-3",
                           "dim=99999999999999999999", "dim=1_0", "dim=\u0662"]
EMBEDDING_ROW_FAULTS = {
    "no-tab": lambda row, other, rng: row.replace("\t", " "),
    "no-values": lambda row, other, rng: row.partition("\t")[0] + "\t",
    "duplicate": lambda row, other, rng: other.partition("\t")[0] + "\t" + row.partition("\t")[2],
    "non-numeric": lambda row, other, rng: _with_values(
        row, lambda v: [rng.choice(NON_NUMERIC)] + v[1:]),
    "count-fewer": lambda row, other, rng: _with_values(row, lambda v: v[:-1]),
    "count-more": lambda row, other, rng: _with_values(row, lambda v: v + ["1.0"]),
    "non-finite": lambda row, other, rng: _with_values(
        row, lambda v: v[:-1] + [rng.choice(NON_FINITE)]),
}


@pytest.mark.parametrize("start", range(0, 1000, 200))
def test_embeddings_fuzz_parity(tmp_path, start):
    path = tmp_path / "e.txt"
    outcomes = set()
    for seed in range(start, start + 200):
        rng = random.Random(seed)
        if rng.random() < 0.02:
            path.write_bytes(b"")
        else:
            write_fuzzed(path, embedding_lines(rng), rng)
        result = check(path, load_embeddings, load_embeddings_typed)
        outcomes.add(result[1] if result[0] == "raised" else "ok")
    assert {"ok", ParseError, DuplicateUttId} <= outcomes


def good_embedding_row(i):
    return "u%d\t%r %r\t%r" % (i, i * 0.5, -i / 3, 1.0)  # a tab between values is whitespace


EMBEDDING_LINE_FAULTS = {
    "no-tab": "bad 1 2 3",
    "duplicate": "u3\t1 2 3",
    "non-numeric": "bad\t1 two 3",
    "digit-group": "bad\t1 2_0 3",
    "other-script": "bad\t1 \u0662 3",
    "count": "bad\t1 2",
    "non-finite": "bad\t1 nan 3",
}


@pytest.mark.parametrize("kind", sorted(EMBEDDING_LINE_FAULTS))
@pytest.mark.parametrize("pos", [0, 6, 12, PAST_ONE_BLOCK])
def test_embeddings_fault_parity(tmp_path, kind, pos):
    path = tmp_path / "e.txt"
    fault = EMBEDDING_LINE_FAULTS[kind]
    lines = faulty_lines("dim=3", good_embedding_row, fault, pos, max(12, pos))
    assert pos < PAST_ONE_BLOCK or line_start(lines, lines.index(fault)) > BLOCK_CHARS
    path.write_text("\r\n".join(lines))
    result = check(path, load_embeddings, load_embeddings_whole)
    if kind == "duplicate":
        repeat = repeat_line(lines, "u3")
        assert result[1:4] == (DuplicateUttId, "%s line %d: duplicate utt_id 'u3'" % (path, repeat),
                               repeat)
    else:
        assert result[1] is ParseError and result[3] == lines.index(fault) + 1


def test_embeddings_accept_any_whitespace(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("dim=3\nu1\t1\t2\t3\n\nu2\t 4 \x0c5  6 \n")
    result = check(path, load_embeddings, load_embeddings_whole)
    assert result[1] == ["u1", "u2"]
    assert load_embeddings(path).vectors.tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("load, whole, header, good", [
    (load_manifest, load_manifest_whole, GOOD_HEADER, good_manifest_row),
    (load_embeddings, load_embeddings_whole, "dim=3", good_embedding_row),
])
def test_undecodable_byte_past_one_block(tmp_path, load, whole, header, good):
    """A bad byte as a file's only fault is reported at its line, however far in."""
    path = tmp_path / "t.txt"
    lines = [header] + [good(i) for i in range(BLOCK_CHARS // 8)]
    k = next(k for k in range(len(lines)) if line_start(lines, k) > BLOCK_CHARS) + 5
    data = "\n".join(lines).encode()
    at = line_start(lines, k) + 2  # inside line k + 1; the rows are ASCII
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    result = check(path, load, whole)
    assert result[1] is ParseError and result[3] == k + 1


# ---------------------------------------------------------------- chunk edges

def read_lines_whole(path, header=False):
    """What read_lines yields, as (line number, line) pairs after the header,
    from the whole file."""
    with open_text(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    pairs = [(k, line) for k, line in enumerate(lines, start=1) if line.strip()]
    if not header:
        return pairs
    return (lines[0] if text else None), [(k, line) for k, line in pairs if k > 1]


def read_lines_blocks(path, header=False):
    """read_lines's output in read_lines_whole's form; no block may be empty."""
    blocks = read_lines(path, header)
    first = next(blocks) if header else None
    pairs = []
    for linenos, lines in blocks:
        assert len(linenos) == len(lines) > 0
        pairs += zip(linenos, lines)
    return (first, pairs) if header else pairs


LINE_FORMS = ["", " ", "\t", "  \t ", "a", "ab\tc", "ü\x0cé", "\x85x", " "]


@pytest.mark.parametrize("chars", [1, 2, 3, 5, 8, 13])
def test_read_lines_at_chunk_edges(tmp_path, monkeypatch, chars):
    """Every line end (LF, CRLF, CR, none at the end), blank and whitespace-only
    line and line longer than a chunk, at every offset from a chunk edge."""
    monkeypatch.setattr(tsv, "BLOCK_CHARS", chars)
    path = tmp_path / "t.txt"
    for seed in range(150):
        rng = random.Random(seed)
        lines = [rng.choice(LINE_FORMS) if rng.random() < 0.7 else "x" * rng.randrange(1, 3 * chars)
                 for _ in range(rng.randrange(10))]
        path.write_bytes(encode(lines, rng, trailing=rng.random() < 0.7))
        for header in (False, True):
            assert read_lines_blocks(path, header) == read_lines_whole(path, header)


@pytest.mark.parametrize("chars", [3, 8191, 8192, BLOCK_CHARS])
@pytest.mark.parametrize("at", [DECODE_CHUNK - 2, DECODE_CHUNK - 1, DECODE_CHUNK])
def test_read_lines_crlf_across_reads(tmp_path, monkeypatch, chars, at):
    """A CRLF whose CR ends one read of the text layer, or of read_lines, and
    whose LF starts the next is one line end."""
    monkeypatch.setattr(tsv, "BLOCK_CHARS", chars)
    path = tmp_path / "t.txt"
    path.write_bytes(b"a" * at + b"\r\nb\r\n\r\nc\rd")
    assert read_lines_blocks(path) == [(1, "a" * at), (2, "b"), (4, "c"), (5, "d")]
    assert read_lines_blocks(path) == read_lines_whole(path)


@pytest.mark.parametrize("chars", [1, 7, 64])
@pytest.mark.parametrize("load, whole, lines", [
    (load_manifest, load_manifest_whole, manifest_lines),
    (load_embeddings, load_embeddings_typed, embedding_lines),
], ids=["manifest", "embeddings"])
def test_loaders_at_chunk_edges(tmp_path, monkeypatch, chars, load, whole, lines):
    """The fuzz parity of both loaders with chunks so small that blocks end
    inside rows, blank lines and line ends, and faults lie in later blocks."""
    monkeypatch.setattr(tsv, "BLOCK_CHARS", chars)
    path = tmp_path / "t.txt"
    outcomes = set()
    for seed in range(1000, 1150):
        rng = random.Random(seed)
        write_fuzzed(path, lines(rng), rng)
        result = check(path, load, whole)
        outcomes.add(result[1] if result[0] == "raised" else "ok")
    assert {"ok", ParseError, DuplicateUttId} <= outcomes


def test_embedding_row_longer_than_a_chunk(tmp_path):
    """A row of more than BLOCK_CHARS characters, among short ones, is read whole."""
    path = tmp_path / "e.txt"
    dim = BLOCK_CHARS // 4
    rng = np.random.default_rng(0)
    rows = ["u%d\t%s" % (i, " ".join(map(repr, rng.normal(size=dim).tolist()))) for i in range(3)]
    assert len(rows[1]) > 2 * BLOCK_CHARS
    path.write_text("dim=%d\n%s\n\n%s" % (dim, "\n".join(rows), rows[0].replace("u0", "u9")))
    assert check(path, load_embeddings, load_embeddings_whole)[1] == ["u0", "u1", "u2", "u9"]
    path.write_text("dim=%d\n%s\n\n%s\n" % (dim, "\n".join(rows), rows[0]))
    assert check(path, load_embeddings, load_embeddings_whole)[3] == 6  # the repeated u0
