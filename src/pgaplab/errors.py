"""Exception hierarchy shared by all pgaplab modules."""


class PgapError(Exception):
    """Base class for all pgaplab errors."""


class ValidationError(PgapError):
    """Bad input data or configuration (CLI exit code 2)."""


class NonSymmetricGenerators(ValidationError):
    """Generating set is not closed under inversion and auto-closure is off."""


class BadWeights(ValidationError):
    """Generator weights are nonpositive or not inverse-symmetric."""


class NotAGroup(ValidationError):
    """A multiplication table fails the group axioms."""


class BallTooLarge(ValidationError):
    """Word-metric ball exceeded the configured element cap."""


class ZeroFunctional(PgapError):
    """Norming vector requested for the zero functional."""


class SupportViolation(PgapError):
    """Vector has mass outside the admissible support of a truncated domain."""


class InfiniteGroup(PgapError):
    """Operation requires a finite group but the ball does not close."""


class AtFixedPoint(PgapError):
    """Closed-form gradient requested where the displacement energy vanishes."""


class AsymmetricSetup(PgapError):
    """Closed-form gradient requires a symmetric generating set and weight."""


class NonsmoothPoint(PgapError):
    """Some generator displacement vanishes; closed-form derivative invalid."""


class FixedVectorPresent(PgapError):
    """Optimization domain contains an invariant vector (exit code 3)."""


class BadEpsilon(ValidationError):
    """Modulus-of-convexity argument outside (0, 2]."""
