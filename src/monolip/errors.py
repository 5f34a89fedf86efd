"""Exception hierarchy shared across the package."""


class MonolipError(Exception):
    """Base class for all package-specific errors."""


class StructureError(MonolipError):
    """Malformed input object (wrong shapes, out-of-range indices).

    Distinct from axiom violations, which are reported, not raised.
    """


class SchemaError(MonolipError):
    """Instance file does not match its documented schema."""

    def __init__(self, message, context=None):
        super().__init__(message if context is None else f"{message} ({context})")
        self.context = context


class SizeCapError(MonolipError):
    """A requested instance exceeds a fixed size limit; raised before allocating."""


class ConvergenceError(MonolipError):
    """Iterative routine hit its iteration cap before meeting tolerance."""


class NumericInstabilityError(MonolipError):
    """A diagnostic invariant of a numeric evaluation failed."""


class NoDirectionError(MonolipError):
    """The cone is {0} or a subspace, so it admits no monotone direction."""


class RadialityRequiredError(MonolipError):
    """Operation needs a radial domain; carries the violating witness."""

    def __init__(self, witness):
        super().__init__(f"domain is not radial: {witness}")
        self.witness = witness


class UnsupportedTargetError(MonolipError):
    """No solver route exists for this target norm/cone combination."""


class HypothesisError(MonolipError):
    """Target space lacks a monotone Busemann ray."""
