"""Exception types shared across the package."""


class MvcodeError(Exception):
    """Base class for all package-specific errors."""


class RegimeError(MvcodeError):
    """Parameters violate the preconditions of a scheme, fixture or formula."""


class BudgetExceededError(MvcodeError):
    """Requested work exceeds the configured enumeration budget."""


class SolverError(MvcodeError):
    """The strategy oracle's integer program ended without a proven optimum."""


class WorkerError(MvcodeError):
    """A worker process of a parallel run ended abnormally."""


class CodecError(MvcodeError):
    """Base class for encode/decode failures."""


class InsufficientSymbolsError(CodecError):
    """Fewer distinct coded symbols than the code dimension."""


class InconsistentSymbolsError(CodecError):
    """Two coded symbols share an index but carry different payloads."""


class DecodeContractError(CodecError):
    """No version at or above the latest complete one was decodable.

    This signals a broken scheme, not a recoverable condition; the verifier
    converts it into a violation record.
    """
