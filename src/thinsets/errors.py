"""Exception hierarchy shared by all thinsets modules, and the one guard
against materializing tower-scale powers of two."""

# Largest |k| for which 2**k may be built as an integer or Fraction.
EXPONENT_LIMIT = 1 << 16


class ThinsetError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the CLI exit code of a report ending in this error: 1
    when a verification failed, 2 when the config or the requested
    operation is invalid or a budget ran out, which is no verdict.  Every
    subclass declares its own.
    """

    exit_code = 1


class InvariantViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input.
    Deliberately not a ThinsetError, so the CLI lets it crash instead of
    reporting it as a failed verification."""


class ExponentTooLarge(ThinsetError, OverflowError):
    """A power of two is too large to materialize."""

    exit_code = 2


def check_exponent(k):
    """Return k if 2**k may be materialized, else raise ExponentTooLarge.
    Call it before every shift whose size comes from a chain exponent."""
    if abs(k) > EXPONENT_LIMIT:
        raise ExponentTooLarge(f"cannot materialize 2**{k}: |exponent| "
                               f"exceeds the limit {EXPONENT_LIMIT}")
    return k


# --- scale chains ---

class NonIntegerRadiusExponent(ThinsetError):
    """e_i * phi_i is not an integer, so the radius is not dyadic."""

    exit_code = 1


class MonotonicityViolation(ThinsetError):
    """A multiplier or exponent schedule is not strictly increasing."""

    exit_code = 1


class DepthTooLarge(ThinsetError):
    """Intermediate integers would exceed the configured bit budget."""

    exit_code = 1


class LevelOutOfRange(ThinsetError):
    exit_code = 2


# --- sparse dyadic arithmetic ---

class TermCapExceeded(ThinsetError):
    """An operation produced more terms than the configured cap."""

    exit_code = 2


class OutOfUnitInterval(ThinsetError):
    exit_code = 2


# --- lattice intersection sets ---

class RegimeViolation(ThinsetError):
    """An operation required a branching/collapse regime the chain lacks."""

    exit_code = 2


class ChainTooShallow(ThinsetError):
    exit_code = 1


class ConditionFailure(ThinsetError):
    """A tree-construction inequality failed; carries level and condition."""

    exit_code = 2

    def __init__(self, message, level=None, condition=None):
        super().__init__(message)
        self.level = level
        self.condition = condition


class CapExceeded(ThinsetError):
    exit_code = 2

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class PreconditionFailure(ThinsetError):
    exit_code = 1


# --- interval evaluation ---

class PrecisionExhausted(ThinsetError):
    """Directed rounding could not separate the two sides of a comparison
    within the precision budget."""

    exit_code = 2


# --- independent Cantor tree ---

class ExhaustedUniverse(ThinsetError):
    exit_code = 1


class ChoiceFailure(ThinsetError):
    exit_code = 1


class DuplicateInput(ThinsetError):
    exit_code = 1


class SearchSpaceTooLarge(ThinsetError):
    exit_code = 2


# --- digit Cantor set ---

class GrowthPropertyMissing(ThinsetError):
    exit_code = 2


class UniverseExceeded(ThinsetError):
    exit_code = 2


class PartitionOverlap(ThinsetError):
    exit_code = 2


# --- CLI ---

class ConfigError(ThinsetError):
    exit_code = 2

