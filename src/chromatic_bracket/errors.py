"""Exception types shared across the package."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager


class ChromaticBracketError(Exception):
    """Base class for every error raised by this package."""


class _Verbatim(str):
    __repr__ = str.__str__


def _bounded(value: object) -> object:
    if isinstance(value, int) and value.bit_length() > 2000:  # about 602 digits
        return _Verbatim(f"<int of {value.bit_length()} bits>")
    if type(value) in (tuple, list):
        return type(value)(map(_bounded, value))
    if type(value) is dict:
        return {_bounded(k): _bounded(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_make"):  # a caller's named tuple, given as a port
        return value._make(map(_bounded, value))
    return value


def shown(value: object) -> str:
    """repr(value) for an error message. An int of more than 2000 bits, alone or
    in tuples, lists and dicts, shows as its bit length: it is never converted
    to decimal, which past sys.get_int_max_str_digits() raises a bare ValueError
    (Python accepts no limit below 640 digits)."""
    return repr(_bounded(value))


class DegreeViolation(ChromaticBracketError):
    """A node does not have exactly three incident half-edges."""

    def __init__(self, node: int, degree: int):
        super().__init__(f"node {shown(node)} has degree {shown(degree)}, expected 3")
        self.node = node
        self.degree = degree


class UnmatchedPort(ChromaticBracketError):
    """A diagram port is not covered by exactly one arc, or one given to build_diagram
    does not exist: it needs kind "n" or "x" and an int owner and slot (not True), in range."""


class StrandClosesWithoutNode(ChromaticBracketError):
    """A strand forms a closed loop that never touches a trivalent node."""


class PartialColoring(ChromaticBracketError):
    """An edge coloring must assign a color to every edge."""


class ImproperColoring(ChromaticBracketError):
    """The operation requires a proper 3-edge-coloring."""


class NotAMatching(ChromaticBracketError):
    """The given edge set is not a perfect matching of the graph."""


class NotPlane(ChromaticBracketError):
    """The operation is only defined for crossing-free genus-0 diagrams."""


class NotCircled(ChromaticBracketError):
    """The rewrite, or crosscheck's comparison, applies to circled crossings only."""


class RecursionBudgetExceeded(ChromaticBracketError):
    """A search hit a bound: the skein step budget, a strand-coloring sum
    (contraction or a skein leaf) keeping more than 14 closed strands (on no
    node), the recursion limit as a depth on an explicit stack (in edges for brute
    force and coloring enumeration, loops for the loop-coloring count, matched edges
    for the perfect-matching search), or the Python stack: contraction, skein and
    the state expansion recurse as deep as the input."""


@contextmanager
def refuse_deep_recursion(search: str) -> Iterator[None]:
    """Re-raise a RecursionError in the block as RecursionBudgetExceeded; wrap
    only a search's top call, so it costs nothing per search node."""
    try:
        yield
    except RecursionError as exc:
        raise RecursionBudgetExceeded(f"{search} is too deep for the Python stack") from exc


class InvalidArgument(ChromaticBracketError, ValueError):
    """A function got an argument outside its domain, such as a value of the wrong type
    given to the CubicGraph or Diagram constructor (or a builder); also a ValueError."""


class ParseError(ChromaticBracketError):
    """Malformed graph or diagram input."""


class IndexOutOfRange(ChromaticBracketError):
    """A requested matching, coloring or arc index does not exist."""
