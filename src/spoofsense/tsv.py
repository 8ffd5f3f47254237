"""Reading of tab-separated text files: manifests, embedding files, score
files and trial lists all get their lines from one reader, read_lines.

Files are read as text, and a line ends at "\n", "\r\n" or "\r" only, not
at the other breaks that str.splitlines() knows.  read_lines yields a
file's lines a block at a time, numbered; blank and whitespace-only lines
are skipped but still counted, so a ParseError names the 1-based line of
the file; names_file makes it name the file too.  A format's header is its
line 1, blank or not.  Loaders check a block's rows whole columns at once
(split_columns, raise_first); a faulty row is reported as the first one in
file order, with the message of the first check it fails.
"""

import functools
from contextlib import contextmanager
from itertools import compress, count, islice, repeat

import numpy as np

from .errors import ParseError

BLOCK_LINES = 4096  # lines split per step: bounds the memory of field strings


def split_lines(text):
    """text's lines, each ended by "\n", "\r\n" or "\r"; the last one is
    what follows the last line end (blank if text ends with one)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@contextmanager
def open_text(path):
    """path opened for reading as text; a byte that the text encoding cannot
    decode raises a ParseError naming path and the byte's line."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from None


def _decode_error(path, exc):
    """ParseError at the line of path's first undecodable byte.

    The text layer decodes a chunk at a time, so exc's position is within a
    chunk; decoding the whole file again gives the file offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        # everything before the first bad byte decodes
        line = len(split_lines(data[: whole.start].decode(exc.encoding)))
        return ParseError(str(whole), line=line, path=path)
    return ParseError(str(exc), path=path)  # the file changed since


def names_file(load):
    """load(path), with every ParseError it raises naming path, so that a
    table loader's errors read "<path> line <N>: <what>"."""
    @functools.wraps(load)
    def named(path):
        try:
            return load(path)
        except ParseError as exc:
            raise ParseError(exc.what, exc.line, path) from None
    return named


def read_lines(path, header=False):
    """Yield (line numbers, lines) for successive blocks of path's non-blank
    lines, each without its line end.  With header, line 1 comes first, on
    its own and as it is: its text, blank or not, or None for an empty file.
    """
    with open_text(path) as fh:
        start = 0
        if header:
            first = fh.readline()
            yield first.rstrip("\n") if first else None
            start = 1
        while block := list(islice(fh, BLOCK_LINES)):
            lines = "".join(block).split("\n")  # last one blank or unterminated
            keep = list(map(bool, map(str.strip, lines)))
            yield list(compress(count(start + 1), keep)), list(compress(lines, keep))
            start += len(block)


def split_columns(blocks, nfields, message):
    """Yield (line numbers, columns) for the rows of successive blocks of
    read_lines; columns are nfields lists of the rows' field strings.

    A block stops before the first row without exactly nfields fields, and
    the generator raises ParseError(message) at that row when it is resumed,
    with {got} in message standing for the row's field count; so a caller
    that checks each block before taking the next reports the first faulty
    line of the file.
    """
    for linenos, rows in blocks:
        tabs = map(str.count, rows, repeat("\t"))
        n = next(compress(count(), map((nfields - 1).__ne__, tabs)), len(rows))
        flat = "\t".join(rows[:n]).split("\t") if n else []
        yield linenos[:n], [flat[k::nfields] for k in range(nfields)]
        if n < len(rows):
            raise ParseError(message.format(got=rows[n].count("\t") + 1), line=linenos[n])


def parse_floats(texts):
    """float() of each text as float64, and a mask of the texts it rejects."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts)), np.zeros(len(texts), bool)
    except ValueError:
        pass
    values, rejected = np.full(len(texts), np.nan), np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            rejected[i] = True
    return values, rejected


def isin(column, values):
    """Bool array: which strings of column are in values."""
    return np.fromiter(map(values.__contains__, column), bool, len(column))


def raise_first(linenos, checks):
    """Raise at the first row that fails any check.

    checks is a list of (bool mask over the rows, row index -> message) in
    the order the checks apply to a row, so a row that fails several gets
    the message of the first.  A message is raised as a ParseError at the
    row's line or, if it is an exception, as it is.
    """
    faulty = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if faulty.size:
        i = int(faulty[0])
        error = next(msg for mask, msg in checks if mask[i])(i)
        raise error if isinstance(error, Exception) else ParseError(error, line=linenos[i])
