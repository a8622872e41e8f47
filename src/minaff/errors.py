"""Exception types shared across the library."""


class InputError(ValueError):
    """Invalid user-supplied data: bad rank, non-dominant weight, unknown
    family label, non-regular highest weight, malformed CLI argument."""


class CharacterError(RuntimeError):
    """A character or multiplicity table broke its invariants: a leading
    multiplicity other than 1, a negative multiplicity, a weight not below
    the highest one, a symplectic total dimension that does not match, or,
    in a decomposition, a nonzero residual or broken Weyl invariance."""


class VerificationError(RuntimeError):
    """An internal verification suite detected a mismatch."""
