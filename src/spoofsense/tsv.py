"""Reading and writing of tab-separated text files: manifests, embedding
files, score files and trial lists all get their lines from one reader,
read_lines, and trial lists and score files are written by one writer,
write_rows.  This module opens every text file, as UTF-8 whatever the
locale: open_text to read, create_text to write with no newline
translation (tables end lines with LF, CSV reports with csv's CRLF).

A line read ends at "\n", "\r\n" or "\r" only, not at the other breaks
that str.splitlines() knows.  read_lines reads BLOCK_CHARS characters at
a time, completed to a line end, and yields the lines a block at a time,
numbered; blank and whitespace-only lines are skipped but still counted, so
a ParseError names the 1-based line of the file; names_file makes it name
the file too.  A format's header is its line 1, blank or not.  Loaders
check a block's rows whole columns at once (split_columns, raise_first); a
faulty row is reported as the first one in file order, with the message of
the first check it fails.

write_rows writes a table given as columns of strings, WRITE_ROWS rows at
a time: each row is its fields joined by "\t" and ended by "\n", so the
file is the same as one written a row at a time with "%s\t%s...\n".  It
takes the columns as iterables and holds no more than one chunk's text at
once, so a column can be formatted as it is written.
"""

import functools
from contextlib import contextmanager
from itertools import compress, count, islice

import numpy as np

from .errors import ParseError

# characters read per step, then completed to a line end: bounds the memory
# of a block's lines and field strings, apart from a long line, read whole
BLOCK_CHARS = 1 << 16
# rows joined per write: bounds the memory of the text of one write
WRITE_ROWS = 1 << 12


def split_lines(text):
    """text's lines, each ended by "\n", "\r\n" or "\r"; the last one is
    what follows the last line end (blank if text ends with one)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@contextmanager
def open_text(path):
    """path opened for reading as UTF-8 text; a byte that does not decode
    raises a ParseError naming path and the byte's line."""
    with open(path, encoding="utf-8") as fh:
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
    table loader's errors read "<path> line <N>: <what>"; a subclass of
    ParseError keeps its class."""
    @functools.wraps(load)
    def named(path):
        try:
            return load(path)
        except ParseError as exc:
            raise type(exc)(exc.what, exc.line, path) from None
    return named


def read_lines(path, header=False):
    """Yield (line numbers, lines) for successive blocks of path's non-blank
    lines, each without its line end; no block is empty.  With header, line
    1 comes first, on its own and as it is: its text, blank or not, or None
    for an empty file.
    """
    with open_text(path) as fh:  # universal newlines: every line ends in "\n"
        start = 0
        if header:
            first = fh.readline()
            yield first.rstrip("\n") if first else None
            start = 1
        while chunk := fh.read(BLOCK_CHARS):
            # the chunk's last line read to its end, so no line spans two blocks
            lines = (chunk + fh.readline()).removesuffix("\n").split("\n")
            if "" in lines or any(map(str.isspace, lines)):
                keep = list(map(bool, map(str.strip, lines)))
                if any(keep):
                    yield list(compress(count(start + 1), keep)), list(compress(lines, keep))
            else:
                yield range(start + 1, start + 1 + len(lines)), lines
            start += len(lines)


def create_text(path):
    """path opened for writing as UTF-8 text, with no newline translation:
    "\n" is written as LF and the csv module's "\r\n" as CRLF."""
    return open(path, "w", encoding="utf-8", newline="")


def write_rows(path, columns):
    """Write the table whose columns are the equal-length iterables of
    strings in columns to path, one line per row; a table without rows
    writes an empty file."""
    rows = map("\t".join, zip(*columns))
    with create_text(path) as fh:
        while chunk := list(islice(rows, WRITE_ROWS)):
            fh.write("\n".join(chunk))
            fh.write("\n")


def split_columns(blocks, nfields, message):
    """Yield (line numbers, columns) for the rows of successive blocks of
    read_lines; columns are nfields lists of the rows' field strings.

    A block stops before the first row without exactly nfields fields, and
    the generator raises ParseError(message) at that row when it is resumed,
    with {got} in message standing for the row's field count; so a caller
    that checks each block before taking the next reports the first faulty
    line of the file.
    """
    step = nfields + 1  # a row's fields, then the "\n" field that ends it
    for linenos, rows in blocks:
        # No field of a line holds "\n", so with the rows joined by "\t\n\t"
        # each row has nfields fields iff every step-th field is "\n" and
        # there are as many fields as that takes.  Only a block that fails
        # this is searched for its first faulty row
        flat = "\t\n\t".join(rows).split("\t")
        n = len(rows)
        if len(flat) != step * n - 1 or flat[nfields::step].count("\n") != n - 1:
            n = next(k for k, row in enumerate(rows) if row.count("\t") != nfields - 1)
            flat = "\t\n\t".join(rows[:n]).split("\t") if n else []
        yield linenos[:n], [flat[k::step] for k in range(nfields)]
        if n < len(rows):
            raise ParseError(message.format(got=rows[n].count("\t") + 1), line=linenos[n])


def plain(text):
    """Whether text holds only ASCII characters and no '_': float() and
    int() also read digit groups such as '1_0' and the digits of other
    scripts, which no number format of a file or config has."""
    return text.isascii() and "_" not in text


def parse_floats(texts):
    """float() of each text as float64, and a mask of the texts it rejects
    or that are not plain."""
    if plain("".join(texts)):  # one check for the column
        try:
            return np.fromiter(map(float, texts), np.float64, len(texts)), np.zeros(len(texts), bool)
        except ValueError:
            pass
    values, rejected = np.full(len(texts), np.nan), np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            if not plain(text):
                raise ValueError(text)
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
