"""Exception hierarchy shared by all modules.

Every error carries the offending data in ``args`` so callers (and the CLI)
can render a concrete witness instead of a bare message.  Its class's
``status`` names the report the CLI gives when the error reaches it:
``invalid_input`` by default, ``fail`` for a :class:`PropertyFailure`,
``resource_exceeded`` for a :class:`ResourceExceeded` and
``internal_error`` for a fault of the engine's own.
"""


class FibrelabError(Exception):
    """Base class for all engine errors."""

    status = "invalid_input"


class PropertyFailure(FibrelabError):
    """A property the input was checked for does not hold."""

    status = "fail"


class UnreadableInput(FibrelabError):
    """An input file is missing, a directory, or not JSON."""


# --- category validation ---------------------------------------------------

class DanglingToken(FibrelabError):
    pass


class MissingComposite(FibrelabError):
    pass


class AssociativityViolation(FibrelabError):
    pass


class IdentityViolation(FibrelabError):
    pass


class TargetMismatch(FibrelabError):
    pass


class ShapeMismatch(FibrelabError):
    pass


# --- set-level (co)limits ---------------------------------------------------

class NotACoconeError(FibrelabError):
    pass


class NonUnique(FibrelabError):
    pass


class ResourceExceeded(FibrelabError):
    """A resource bound was hit before the answer was found."""

    status = "resource_exceeded"


# --- Kan extensions ---------------------------------------------------------

class IncompatibleFamily(FibrelabError):
    pass


class NoSolution(FibrelabError):
    pass


# --- Grothendieck constructions --------------------------------------------

class NonFunctorialDiagram(FibrelabError):
    pass


class NonFunctorialFamily(FibrelabError):
    pass


class NotALaxCocone(FibrelabError):
    pass


# --- fibrations -------------------------------------------------------------

class SplitLawViolation(FibrelabError):
    pass


class NonFunctorialTransition(FibrelabError):
    pass


class UnverifiedCleavage(PropertyFailure):
    pass


class TriangleViolation(PropertyFailure):
    pass


class HomBijectionFailure(PropertyFailure):
    pass


class NoBaseLimit(PropertyFailure):
    pass


class NoFibreLimit(PropertyFailure):
    pass


class TerminalityFailure(PropertyFailure):
    pass


class SquareNotCommuting(FibrelabError):
    pass


class NotAMorphism(FibrelabError):
    pass


# --- diagram categories -----------------------------------------------------

class VariantMismatch(FibrelabError):
    pass


class EndpointMismatch(FibrelabError):
    pass


class AmbientNotFinite(FibrelabError):
    pass


# --- colimits in Cat --------------------------------------------------------

class BoundExceeded(ResourceExceeded):
    """The saturation bound was hit; the colimit may be infinite."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class CertificateFailure(FibrelabError):
    """A certificate that the engine checks on its own result failed."""

    status = "internal_error"


class NaturalityFailure(CertificateFailure):
    pass


class IllFormedComparison(FibrelabError):
    pass


# --- reports ----------------------------------------------------------------

class MissingWitness(FibrelabError):
    """A fail or invalid_input report was made without its witness."""

    status = "internal_error"
