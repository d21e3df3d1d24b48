"""Exception hierarchy shared by all latticelab modules."""


class LatticeLabError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroInverse(LatticeLabError):
    """Attempted to invert an element that shares a factor with the modulus."""


class ZeroElement(LatticeLabError):
    """Operation requires a non-zero field element, or a unit mod q."""


class InvalidParams(LatticeLabError):
    """Parameter object violates its own invariants."""


class ParamMismatch(LatticeLabError):
    """Two operands or records that must share one parameter set do not."""


class LengthMismatch(LatticeLabError):
    """A coefficient/bit vector has the wrong length."""


class NonSquarefree(LatticeLabError):
    """Polynomial has a repeated root where a squarefree one is required."""


class NoConvergence(LatticeLabError):
    """The numeric root finder (numpy's eigenvalue solver) did not converge."""


class NTooSmall(LatticeLabError):
    """Dimension below the minimum supported by the parameter derivation."""


class PreconditionFailed(LatticeLabError):
    """An attack precondition (root of f mod q, order bound, ...) fails."""


class OrderTooLarge(LatticeLabError):
    """Root order makes the smallness region too large to materialize."""


class RejectionOverflow(LatticeLabError):
    """Signature rejection loop did not terminate; parameters are broken."""


class DecryptFail(LatticeLabError):
    """Homomorphic ciphertext noise exceeded the decryptable budget."""


class LevelExceeded(LatticeLabError):
    """Homomorphic operation attempted past the top level of the chain."""


class ChainOverflow(LatticeLabError):
    """Modulus chain construction exceeded the supported integer range."""


class FormatError(LatticeLabError):
    """A key/ciphertext/signature file does not match its declared format."""
