"""Exception types shared across the package."""

from __future__ import annotations


class ChromaticBracketError(Exception):
    """Base class for every error raised by this package."""


class EmptyGraph(ChromaticBracketError):
    """A graph must have at least one node."""


class DegreeViolation(ChromaticBracketError):
    """A node does not have exactly three incident half-edges."""

    def __init__(self, node: int, degree: int):
        super().__init__(f"node {node} has degree {degree}, expected 3")
        self.node = node
        self.degree = degree


class Disconnected(ChromaticBracketError):
    """The operation requires a connected graph."""


class UnmatchedPort(ChromaticBracketError):
    """A diagram port is not covered by exactly one arc."""


class StrandClosesWithoutNode(ChromaticBracketError):
    """A strand forms a closed loop that never touches a trivalent node."""


class DegenerateLayout(ChromaticBracketError):
    """Chord layout failed: three chords pass through a common point."""


class PartialColoring(ChromaticBracketError):
    """An edge coloring must assign a color to every edge."""


class ImproperColoring(ChromaticBracketError):
    """The operation requires a proper 3-edge-coloring."""


class NotAMatching(ChromaticBracketError):
    """The given edge set is not a perfect matching of the graph."""


class IncompleteState(ChromaticBracketError):
    """A state's loops and sites do not cover every edge of its graph."""


class OddCycle(ChromaticBracketError):
    """A complement cycle of odd length blocks the requested construction."""


class NotPlane(ChromaticBracketError):
    """The operation is only defined for crossing-free genus-0 diagrams."""


class NonIntegerResult(ChromaticBracketError):
    """A bracket sum came out with a dangling imaginary factor.

    This cannot happen when the node-weight conventions are consistent; it is
    kept as a loud guard against convention bugs.
    """


class NotCircled(ChromaticBracketError):
    """The rewrite applies to circled crossings only."""


class RecursionBudgetExceeded(ChromaticBracketError):
    """The skein used up its step budget, or one of its leaves kept more than
    14 closed strands (on no node) that the strand sum could not reduce."""


class NoPerfectMatching(ChromaticBracketError):
    """The graph has no perfect matching."""


class ParseError(ChromaticBracketError):
    """Malformed graph or diagram input."""


class MethodDisagreement(ChromaticBracketError):
    """Two counting methods returned different values for the same input."""


class IndexOutOfRange(ChromaticBracketError):
    """A requested matching or coloring index does not exist."""
