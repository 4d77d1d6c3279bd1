"""Exception hierarchy shared across the package, and the range check of library parameters."""


class GeocertError(Exception):
    """Base class for all errors raised by geocert."""


class ShapeError(GeocertError):
    """Input has the wrong shape, or is not symmetric where symmetry is required."""


class DomainError(GeocertError):
    """A numeric value lies outside the domain of the requested operation."""


class RangeError(GeocertError):
    """A parameter lies outside its admissible range."""


def check_range(name: str, value, rule: str, test) -> None:
    """``RangeError("<name> must be <rule>, got <value!r>")`` unless ``test(value)`` is true.

    A boolean fails every rule, as it does in a problem file, and so does a
    value on which ``test`` raises ``TypeError``.
    """
    try:
        valid = not isinstance(value, bool) and test(value)
    except TypeError:
        valid = False
    if not valid:
        raise RangeError(f"{name} must be {rule}, got {value!r}")


class DeclarationConflictError(GeocertError):
    """A variable name was declared on two different manifolds."""


class RegistrationConflictError(GeocertError):
    """An atom id was registered twice."""


class UnknownAtomError(GeocertError):
    """Lookup of an atom id that is not in the registry."""


class ExpressionError(GeocertError):
    """Malformed expression: arity, argument kind, or dimension mismatch."""


class ParseError(GeocertError):
    """Syntax or resolution error in the expression DSL."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ProblemFileError(GeocertError):
    """Invalid problem file."""


class InconclusiveError(GeocertError):
    """Fuzzing skipped too many trials to support any verdict."""


class StagnationError(GeocertError):
    """Line search failed to make progress; carries the partial solve result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
