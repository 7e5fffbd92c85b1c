"""Exception types shared across the package.

Every public operation raises one of these named errors so that callers (and
the CLI, which prints the class name) can tell validation problems apart from
genuine check failures.
"""


class SRBettiError(Exception):
    """Base class for all errors raised by this package."""


class VertexOutOfRange(SRBettiError):
    """A vertex index lies outside 1..m."""


class IsolatedVertexMissing(SRBettiError):
    """Some vertex of [m] occurs in no facet (pass allow_isolated to accept)."""


class EmptyFacetList(SRBettiError):
    """No facets were given, or a facet is empty."""


class InvalidDimension(SRBettiError):
    """Dimension argument outside the allowed range."""


class VertexBudgetExceeded(SRBettiError):
    """Vertex count exceeds the configured cap for an exponential operation."""


class PartitionMismatch(SRBettiError):
    """Blocks do not form a partition of [m], or m disagrees with the complex."""


class ColorOutOfRange(SRBettiError):
    """A color index lies outside 1..r."""


class NotAMember(SRBettiError):
    """kappa(i, L) requires i to be a member of L."""


class DegeneratePartition(SRBettiError):
    """Operation requires a nondegenerate partition (vertex coloring)."""


class NotAComplex(SRBettiError):
    """Coboundary maps do not compose to zero, or do not fit their bases.

    Carries the degree q, the label of the offending face or generator, and
    for a Koszul piece its color weight w."""

    def __init__(self, message, q=None, label=None, weight=None):
        super().__init__(message)
        self.q = q
        self.label = label
        self.weight = weight


class MismatchFound(SRBettiError):
    """A multi-route consistency check failed; carries the offending (q, L)."""

    def __init__(self, message, q=None, colors=None):
        super().__init__(message)
        self.q = q
        self.colors = colors


class StabilizationNotReached(Warning):
    """Koszul weight shells still contributed homology at the bound (warning);
    carries the color sets L that did not stabilize, as lists of colors."""

    def __init__(self, message, colors=None):
        super().__init__(message)
        self.colors = colors
