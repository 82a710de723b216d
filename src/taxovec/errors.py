"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError and its subclasses exit
with 2, except ConfigError, which is a usage error and exits with 1 like
click's own usage errors; NumericError exits with 3.
"""


class TaxovecError(Exception):
    pass


class DataError(TaxovecError):
    """Bad input data: unparseable files, structural violations, lookups."""


class RecordError(DataError):
    """A malformed line in an input file: a wrong field count, an empty
    field or a bad number. The message starts with file:line."""


class StructuralError(DataError):
    """Graph violates a structural requirement (self-loop, cycle)."""


class UnknownNodeError(DataError):
    """A node id was not found in the graph or embedding index."""


class ConfigError(DataError):
    """Invalid measure configuration, e.g. a missing information-content entry."""


class EmptyDatasetError(DataError):
    """Dataset construction pruned away every candidate pair."""


class DegenerateRangeError(DataError):
    """Unity normalization needs at least two distinct finite values."""


class NumericError(TaxovecError):
    """Non-finite loss or other numeric breakdown during training."""
