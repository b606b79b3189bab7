"""Exception hierarchy shared by all modules.

Every error carries the offending data in ``args`` so callers (and the CLI)
can render a concrete witness instead of a bare message.
"""


class FibrelabError(Exception):
    """Base class for all engine errors."""


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
    pass


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


class UnverifiedCleavage(FibrelabError):
    pass


class TriangleViolation(FibrelabError):
    pass


class HomBijectionFailure(FibrelabError):
    pass


class NoBaseLimit(FibrelabError):
    pass


class NoFibreLimit(FibrelabError):
    pass


class TerminalityFailure(FibrelabError):
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

class BoundExceeded(FibrelabError):
    """The saturation bound was hit; the colimit may be infinite."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class CertificateFailure(FibrelabError):
    """A certificate that the engine checks on its own result failed."""


class NaturalityFailure(CertificateFailure):
    pass


class IllFormedComparison(FibrelabError):
    pass


# --- reports ----------------------------------------------------------------

class MissingWitness(FibrelabError):
    """A fail or invalid_input report was made without its witness."""
