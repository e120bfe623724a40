"""Exception taxonomy.

``BoxparseError`` is the root, and ``DataError``, ``ConfigError`` and
``NumericError`` are the family bases. Every other class here is raised
somewhere in the package. The planned command-line interface (ROADMAP
item 5) maps the families to exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""


class BoxparseError(Exception):
    """Base class for all errors raised by this package."""


class DataError(BoxparseError):
    """Malformed or inconsistent input data."""


class EmptyInput(DataError):
    pass


class UnboundVariable(DataError):
    pass


class DuplicateReferent(DataError):
    pass


class UnknownOperator(DataError):
    pass


class CyclicStructure(DataError):
    pass


class AmbiguousMerge(DataError):
    """Presupposed box whose variables are consumed by several sibling boxes."""


class MalformedSequence(DataError):
    pass


class MalformedTree(DataError):
    pass


class PairingError(DataError):
    pass


class ConfigError(BoxparseError):
    """Invalid configuration requested."""


class NumericError(BoxparseError):
    """Numerical failure: shape mismatch, NaN/Inf loss, failed gradient check."""


class ShapeError(NumericError):
    pass
