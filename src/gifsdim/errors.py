"""Exception types shared across the package.

Every error that a caller is expected to catch lives here, so modules never
need to import each other just for exceptions.  Solver routines that can
return a partial-but-certified answer do NOT raise; they flag the returned
estimate instead (see pressure/dimension status fields).
"""


class GifsError(Exception):
    """Base class for all package errors."""


class NonAdmissibleWord(GifsError):
    """A word violates the transition structure it was evaluated against."""


class NoAdmissibleWords(GifsError):
    """The requested word stream is empty (pressure is -inf there)."""


class DomainViolation(GifsError):
    """A point or set left the domain a map is defined on."""


class DegenerateMap(GifsError):
    """An operation that needs an invertible derivative met a constant map."""


class UnsupportedShape(GifsError):
    """No certified geometry routine exists for this shape/map pairing."""


class MixedFamily(GifsError):
    """A per-family routine received maps from incompatible families."""


class ConditionViolation(GifsError):
    """A structural precondition failed with a concrete witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class InvalidAlphabet(GifsError):
    """An alphabet entry is outside the family's allowed letters."""


class SummabilityWitnessMissing(GifsError):
    """An infinite-alphabet operation needs a declared tail witness."""


class IrregularSystem(GifsError):
    """No certified pressure sign change exists in the scanned s-range."""


class CrossedBracket(GifsError):
    """A certified root enclosure missed the running root bracket.

    Every enclosure is certified on its own, so a crossing means some
    pressure bracket was wrong.  s and (lower, upper) name the probe and its
    pressure bracket; (root_lower, root_upper) is the crossed root bracket
    its enclosure left.
    """

    def __init__(self, s, lower, upper, root_lower, root_upper):
        self.s = s
        self.lower = lower
        self.upper = upper
        self.root_lower = root_lower
        self.root_upper = root_upper
        super().__init__(
            f"pressure bracket [{lower!r}, {upper!r}] at s={s!r} crossed the "
            f"root bracket: [{root_lower!r}, {root_upper!r}]"
        )


class BudgetExhausted(GifsError):
    """A hard budget was hit before any certified answer existed."""


class SchemaViolation(GifsError):
    """Config validation failed; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(self.violations)
        super().__init__(f"{len(self.violations)} config violation(s): {lines}")


class DegenerateBounds(GifsError):
    """A raster was asked for over an empty or zero-area region."""
