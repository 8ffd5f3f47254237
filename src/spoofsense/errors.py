"""Exception taxonomy for the toolkit.

Everything raised on bad data derives from SpoofsenseError so CLI entry
points can catch one type and exit nonzero.  Genuine bugs (wrong argument
types and the like) stay ordinary ValueErrors/TypeErrors.
"""


class SpoofsenseError(Exception):
    pass


# --- audio i/o ---

class MalformedRiff(SpoofsenseError):
    pass


class UnsupportedEncoding(SpoofsenseError):
    pass


class TruncatedData(SpoofsenseError):
    pass


class InputTooShort(SpoofsenseError):
    pass


# --- F0 / perturbation ---

class EmptyAfterTrim(SpoofsenseError):
    pass


class NoVoicedRegion(SpoofsenseError):
    pass


class TooFewCycles(SpoofsenseError):
    pass


class ZeroAmplitude(SpoofsenseError):
    pass


class AlignmentMismatch(SpoofsenseError):
    pass


# --- entropy ---

class SequenceTooShort(SpoofsenseError):
    pass


class AllZeroPsd(SpoofsenseError):
    pass


# --- classifier ---

class BadDims(SpoofsenseError):
    pass


class DimMismatch(SpoofsenseError):
    pass


class EmptyDataset(SpoofsenseError):
    pass


# --- metrics ---

class DegenerateLabels(SpoofsenseError):
    pass


class IllPosedCostModel(SpoofsenseError):
    pass


# --- manifests / trials / embeddings ---

class ParseError(SpoofsenseError):
    """Malformed text input: what is wrong, and where when known, the file's
    path and the 1-based line number, as "<path> line <N>: <what>"."""

    def __init__(self, what, line=None, path=None):
        where = [] if path is None else [str(path)]
        if line is not None:
            where.append("line %d" % line)
        super().__init__("%s: %s" % (" ".join(where), what) if where else what)
        self.what, self.line, self.path = what, line, path


class DuplicateUttId(ParseError):
    pass


class MissingMimickedTarget(ParseError):
    pass


class EmptyCategory(SpoofsenseError):
    pass


class MissingEmbedding(SpoofsenseError):
    pass


class ZeroVector(SpoofsenseError):
    pass


# --- feature store / model files ---

class BadMagic(SpoofsenseError):
    pass


class TruncatedPayload(SpoofsenseError):
    pass


class CorruptPayload(SpoofsenseError):
    """Well-framed file holding values no writer produces: NaN, inf, a negative hop."""


class KindDimsMismatch(SpoofsenseError):
    pass


class MissingFeatureFile(SpoofsenseError):
    pass


# --- configuration ---

class ConfigError(SpoofsenseError):
    pass
