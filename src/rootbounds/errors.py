"""Every exception of the package, each with the CLI's exit code for it: an
unreadable input is an InputError (2), a refused argument or a request past
a ``MAX_*`` cap a ParamError (3), a failed self-check an InternalError (4).
The second bases keep ``except ValueError`` and ``except ArithmeticError``
in library callers working.  :func:`require_int` is the library's one integer
rule, refusing a bool, float, string or None by name, and ``linalg.to_vec`` its rational rule.
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


def shown(value: object) -> str:
    """repr(value), or the size of an int too long to print."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def require_int(name: str, value: object, low: int | None = None, high: int | None = None) -> int:
    """value if its type is int (a bool's is not) and low <= value <= high,
    an end None being open; else a ParamError naming the parameter."""
    if type(value) is int and (low is None or value >= low) and (high is None or value <= high):
        return value
    ends = " and ".join(f"{op} {x}" for op, x in ((">=", low), ("<=", high)) if x is not None)
    raise ParamError(f"{name} must be an integer {ends}".rstrip() + f", got {shown(value)}")
