"""Exception types shared across the package."""


class DisctagError(Exception):
    """Base class for all errors raised by this package."""


# Machine-readable reasons carried by :class:`Incompatible`.
PARTIAL_OVERLAP = "partial-overlap"
THREE_WAY_SPLIT = "three-way-split"
SPAN_CONFLICT = "span-conflict"

INCOMPATIBLE_REASONS = (PARTIAL_OVERLAP, THREE_WAY_SPLIT, SPAN_CONFLICT)


class Incompatible(DisctagError):
    """A mention set cannot be expressed in the two-layer representation.

    ``reason`` is one of :data:`INCOMPATIBLE_REASONS`:

    - ``partial-overlap``: components are shared between mentions in a way
      that does not form a complete two-sided product.
    - ``three-way-split``: some mention decomposes into three or more
      components.
    - ``span-conflict``: two annotation elements (set spans or continuous
      mentions) occupy overlapping word ranges.
    """

    def __init__(self, reason: str, detail: str = ""):
        if reason not in INCOMPATIBLE_REASONS:
            raise ValueError(f"unknown incompatibility reason: {reason!r}")
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class EncodingViolation(DisctagError):
    """Encoding an annotation produced a tag sequence that is not well-formed."""


class IllFormed(DisctagError):
    """A tag sequence is not well-formed: the grammar automaton rejects it."""


class EmptyLanguage(DisctagError):
    """An automaton or lattice accepts no sequence at all."""


class ParseError(DisctagError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConfigError(DisctagError):
    """Invalid training or CLI configuration."""


class LengthMismatch(DisctagError):
    """Two aligned collections differ in length."""
