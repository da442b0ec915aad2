"""Exception hierarchy shared by all gonal modules."""


class GonalError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(GonalError, ValueError):
    """Parameters violate a documented precondition (non-prime p, r < 3, ...)."""


class AmbientMismatchError(GonalError, ValueError):
    """Two values live over different ambient dimensions or moduli."""


class CapExceededError(GonalError):
    """An enumeration would exceed its resource cap.

    `required` is the cap value that would let the call proceed.
    """

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(f"{message} (required cap {required}, current cap {cap})")
        self.required = required
        self.cap = cap


class NoInvariantSubspaceError(GonalError, ValueError):
    """Requested invariant-subspace dimension is not a multiple of ord_p(q)."""


class InvalidTransversalError(GonalError, ValueError):
    """Transversal element lies inside the subgroup it should complement."""


class FixtureParseError(GonalError, ValueError):
    """A generator-word fixture is malformed or indexes out of range."""


class IdentityCheckError(GonalError):
    """An exact identity that must hold failed; carries a witness message."""
