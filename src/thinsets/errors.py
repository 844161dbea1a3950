"""Exception hierarchy shared by all thinsets modules, and the one guard
against materializing tower-scale powers of two."""

# Largest |k| for which 2**k may be built as an integer or Fraction.
EXPONENT_LIMIT = 1 << 16


class ThinsetError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input.
    Deliberately not a ThinsetError, so the CLI lets it crash instead of
    reporting it as a failed verification."""


class ExponentTooLarge(ThinsetError, OverflowError):
    """A power of two is too large to materialize."""


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


class MonotonicityViolation(ThinsetError):
    """A multiplier or exponent schedule is not strictly increasing."""


class DepthTooLarge(ThinsetError):
    """Intermediate integers would exceed the configured bit budget."""


class LevelOutOfRange(ThinsetError):
    pass


# --- sparse dyadic arithmetic ---

class TermCapExceeded(ThinsetError):
    """An operation produced more terms than the configured cap."""


class OutOfUnitInterval(ThinsetError):
    pass


# --- lattice intersection sets ---

class RegimeViolation(ThinsetError):
    """An operation required a branching/collapse regime the chain lacks."""


class ChainTooShallow(ThinsetError):
    pass


class ConditionFailure(ThinsetError):
    """A tree-construction inequality failed; carries level and condition."""

    def __init__(self, message, level=None, condition=None):
        super().__init__(message)
        self.level = level
        self.condition = condition


class CapExceeded(ThinsetError):
    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class PreconditionFailure(ThinsetError):
    pass


# --- interval evaluation ---

class PrecisionExhausted(ThinsetError):
    """Directed rounding could not separate the two sides of a comparison
    within the precision budget."""


# --- independent Cantor tree ---

class ExhaustedUniverse(ThinsetError):
    pass


class ChoiceFailure(ThinsetError):
    pass


class DuplicateInput(ThinsetError):
    pass


class SearchSpaceTooLarge(ThinsetError):
    pass


# --- digit Cantor set ---

class GrowthPropertyMissing(ThinsetError):
    pass


class UniverseExceeded(ThinsetError):
    pass


class CarryBudgetExceeded(ThinsetError):
    """A canonical-digit carry walk ran past its step budget."""


class PartitionOverlap(ThinsetError):
    pass


# --- CLI ---

class ConfigError(ThinsetError):
    pass
