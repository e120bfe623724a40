"""Exception taxonomy.

``BoxparseError`` is the root, and ``DataError``, ``ConfigError`` and
``NumericError`` are the family bases. Every class here but
``BoxparseError`` is raised somewhere in the package. The family bases
are raised directly too, where no subclass names the fault: ``drs``,
``tree`` and ``evaluate`` raise ``DataError``, and ``autodiff`` raises
``NumericError`` for a value that is not finite (a draw, a softmax, a
cross-entropy, a loss, a gradient norm, an Adam step). ``ConfigError``
is raised for a setting: by ``autodiff.clip_grad_norm`` for a
``max_norm`` that is not above 0, and by ``autodiff.Adam`` for a learning
rate that is not finite and above 0. The planned command-line interface
(ROADMAP item 5) maps the families to exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.

Data is what a caller reads from outside: clause text, and the fields of a
value being built. Data of any shape raises a ``BoxparseError``; so the
parsers raise ``DataError`` for text that is not a ``str``. An argument
that should be a value of this package and is not (``validate("x")``,
``d.box(["b1"])``, ``to_clauses(None)``) is a caller's bug, not bad data,
and may raise any exception, as ``autodiff`` states for an operand that is
not a ``Tensor``.
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
    """A setting a caller gives is out of its range."""


class NumericError(BoxparseError):
    """Numerical failure: a shape mismatch, or a value that is not finite."""


class ShapeError(NumericError):
    pass
