"""Exception types shared across the package."""


class EvshapeError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------- pmf

class NegativeMass(EvshapeError):
    """A mass table contains a negative entry."""


class MassSumViolation(EvshapeError):
    """Total mass is incompatible with the declared kind."""


class NegativeSupport(EvshapeError):
    """Operation requires support on the nonnegative integers."""


class EmptyObservations(EvshapeError):
    """An empirical distribution needs at least one observation."""


class SubprobabilitySampling(EvshapeError):
    """Sampling requires a full probability, not a subprobability."""


class SubprobabilityInput(EvshapeError):
    """Operation requires a full probability, not a subprobability."""


# ------------------------------------------------------------ e-values

class NegativeValue(EvshapeError):
    """An e-value table or tail constant is negative."""


class NoViolationAt(EvshapeError):
    """No local monotonicity violation at the requested location."""


class NoViolation(EvshapeError):
    """The distribution lies in the null class; no witness exists."""


class NonzeroTail(EvshapeError):
    """Operation requires a zero right tail."""


class InvalidCertificate(EvshapeError):
    """A dual certificate violates its structural constraints."""


class ZeroFittedMass(EvshapeError):
    """A positive mass whose fitted non-increasing mass rounds to zero."""


# ----------------------------------------------------------- processes

class NegativeObservation(EvshapeError):
    """Streams for the monotone null live on nonnegative integers."""


class AlreadyRejected(EvshapeError):
    """The sequential test has already stopped."""


class InvalidSnapshot(EvshapeError):
    """A snapshot has a negative count, an ``n`` that is not the total of
    its counts, a non-finite log factor, or a state no run reaches."""


# ------------------------------------------------- mode inference / CIs

class BadAlpha(EvshapeError):
    """Significance level must lie strictly between 0 and 1."""


class ZeroPhi(EvshapeError):
    """The anchor point must be a nonzero integer."""


# ----------------------------------------------------------- continuous

class BadInterval(EvshapeError):
    """An interval (a, b] needs 0 < a < b."""


class AtomPresent(EvshapeError):
    """Operation requires an atom-free density."""


# -------------------------------------------------------------- harness

class ConfigError(EvshapeError):
    """A scenario configuration is invalid; the message names the field."""


# ------------------------------------------------------------------ cli

class NonFiniteInput(EvshapeError):
    """An input value is infinite or NaN."""


class NonIntegerInput(EvshapeError):
    """An integer stream carries a value that is not an integer."""


class NonNumericInput(EvshapeError):
    """A number stream carries a JSON value that is not a number."""
