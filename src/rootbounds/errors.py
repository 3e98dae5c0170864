"""Every exception of the package, each with the CLI's exit code for it: an
unreadable input is an InputError (2), a refused argument or a request past
a ``MAX_*`` cap a ParamError (3), a failed self-check an InternalError (4).
The second bases keep ``except ValueError`` and ``except ArithmeticError``
in library callers working.
"""


class RootboundsError(Exception):
    exit_code = 4  # the CLI prints "<label>: <message>" and exits with it
    label = "error"


class InputError(RootboundsError, ValueError):
    exit_code = 2


class ParamError(RootboundsError, ValueError):
    exit_code = 3


class InternalError(RootboundsError, ArithmeticError):
    """A self-check of an exact computation failed: a bug, never the input."""
    exit_code = 4
    label = "internal"


class ParseError(InputError):
    """The text grammar refuses the input, or a polynomial of either form cancels."""


class DimensionError(ParamError):
    """Polytopes of different ambient dimensions, or past ``MAX_DIM``."""


class CapExceededError(ParamError):
    """A desk-scale expansion cap was exceeded."""


class CancellationError(ParamError, ArithmeticError):
    """Summing the system's polynomials cancelled every coefficient."""


class PrecisionCapError(ParamError, ArithmeticError):
    """Residue refinement hit the recursion cap before deciding."""
