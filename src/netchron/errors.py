"""Exception hierarchy shared across the package.

Two broad families matter to callers: DataError for invalid or
inconsistent inputs, NumericalError for failures that arise during
computation. The CLI maps them to distinct exit codes.
"""


class NetchronError(Exception):
    """Base class for all package errors."""


class DataError(NetchronError):
    """Invalid, malformed, or inconsistent input data."""


class NumericalError(NetchronError):
    """Numerical failure while computing (divergence, out of domain)."""


class EmptyInput(DataError):
    """A graph or collection that must be non-empty was empty."""


class SelfLoop(DataError):
    """An edge connects a node to itself."""


class DuplicateEdge(DataError):
    """The same unordered node pair appears more than once."""


class InvalidEdge(DataError):
    """An edge references a node id outside the graph."""


class InvalidPermutation(DataError):
    """An ordering is not a permutation of the edge indices."""


class ParseError(DataError):
    """A data file could not be parsed; message carries the line number."""


class BadSpec(DataError):
    """A generator or dynamics request violates its constraints."""


class StageMismatch(DataError):
    """Relaxation stages and targets differ in length."""


class BadDims(DataError):
    """Propagation layer dimensions are invalid."""


class DimensionMismatch(DataError):
    """An array has a shape incompatible with the operation."""


class RowMismatch(DataError):
    """Feature blocks being combined describe different edge sets."""


class InsufficientLabels(DataError):
    """Too few labeled edges (or too few distinct times) to form pairs."""


class EmptyPairs(DataError):
    """A pair collection that must be non-empty was empty."""


class DegenerateTruth(DataError):
    """Ground-truth times carry no ordering information (all equal)."""


class FeatureSchemaMismatch(DataError):
    """A model was applied to features with a different column schema."""


class CoverageError(DataError):
    """An ordering file does not cover the graph's edges exactly."""


class NumericalBlowup(NumericalError):
    """A simulated state left the plausible range (divergence)."""


class OutOfDomain(NumericalError):
    """A quantity was requested outside the domain of its formula."""


class FlatTruthCurve(NumericalError):
    """A reference trajectory has zero range, its NRMSE is undefined."""
