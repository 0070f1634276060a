"""Exception types raised by the toolkit.

All domain errors derive from RevlabError so callers (and the CLI) can
distinguish them from parse failures, which derive from ParseError.
"""


class RevlabError(Exception):
    """Base class for domain errors."""


class ParseError(RevlabError):
    """Malformed table, netlist, program, or technology file."""


class NotReversible(RevlabError):
    """The function is not bijective; no inverse exists."""


class WidthMismatch(RevlabError):
    """Bit widths of two operands do not line up."""


class LineOutOfRange(RevlabError):
    """A gate references a line outside the circuit."""


class TooWide(RevlabError):
    """Exhaustive enumeration requested beyond a cap: 16 lines, 10 qubits, or
    2^21 amplitudes over the blocks of a program's branch walk."""


class MissingParameter(RevlabError):
    """A required parameter (e.g. a rotation angle) was not supplied."""


class NotUnitary(RevlabError):
    """The operator is not unitary and therefore not invertible."""


class ZeroNorm(RevlabError):
    """A state vector with (near-)zero norm cannot be measured."""


class ZeroFrequency(RevlabError):
    """Per-cycle quantities are undefined at zero clock frequency."""


class DimensionMismatch(RevlabError):
    """Operand dimensions are incompatible."""


class InconsistentProfile(RevlabError):
    """The system profile satisfies none of the reversibility levels."""
