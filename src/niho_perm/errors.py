"""Exception types shared across the package.

UsageError maps to CLI exit code 2; verification failures are reported, not
raised, and map to exit code 1.
"""


class NihoPermError(Exception):
    """Base class for all package-specific errors."""


class UsageError(NihoPermError):
    """Caller violated a precondition (bad arguments, parity, guard)."""


class GuardExceededError(UsageError):
    """A size guard was exceeded (only search takes --force)."""


class FieldConstructionError(NihoPermError):
    """A modulus failed validation; the message names the failing check."""


class NoInverseError(NihoPermError):
    """Modular inverse does not exist; carries the offending gcd."""

    def __init__(self, message: str, gcd: int):
        super().__init__(message)
        self.gcd = gcd


class ResidueError(UsageError):
    """A residue expression did not resolve to an integer."""


class PoleError(NihoPermError):
    """A rational map hit a zero denominator; carries the witness point."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness
