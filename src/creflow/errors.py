"""Exception types shared across the package."""


class CreflowError(Exception):
    """Base class for all package-specific errors."""


class FormulaSyntaxError(CreflowError):
    """Raised on malformed formula text; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownEntity(CreflowError):
    pass


class UnknownPredicate(CreflowError):
    pass


class MissingAttribute(CreflowError):
    pass


class MissingStream(CreflowError):
    pass


class HorizonMismatch(CreflowError):
    pass


class SpecValidationError(CreflowError):
    pass


class UnknownEvaluator(SpecValidationError):
    pass


class SchemaError(CreflowError):
    """Malformed or wrong-version structured input file."""


class LayoutMismatch(CreflowError):
    pass


class ShapeMismatch(CreflowError):
    pass


class DimMismatch(CreflowError):
    pass


class TOutOfRange(CreflowError):
    pass


class EmptyGroup(CreflowError):
    pass


class DegenerateWorld(CreflowError):
    pass


class ConstructionViolated(CreflowError):
    pass


class SingularSystem(CreflowError):
    pass


class InsufficientSamples(CreflowError):
    pass


class NonFiniteLoss(CreflowError):
    """Training met a non-finite rollout or loss. ``state`` is the loop's state at that
    iteration, made only when this is raised: the iteration, the metric rows written
    before it, the group's rewards and the parameter and gradient norms (None where
    not computed yet or not finite); ``creflow train`` writes it to its diagnostic dump."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state
