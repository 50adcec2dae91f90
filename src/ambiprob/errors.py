"""Exception types shared across the package."""

import functools


class AmbiprobError(Exception):
    """Base class for all library errors."""


class EmptySupport(AmbiprobError):
    """Conditioning on an event no family satisfies (infinite rejection loop)."""


class ZeroStatementMass(AmbiprobError):
    """The conditioned statement is never emitted; the posterior is undefined."""


class UnsupportedConfig(AmbiprobError):
    """A builtin scenario was asked for a world its closed-form answer does not
    cover (family size n != 2)."""


class DayOutOfRange(AmbiprobError):
    """A day bound to a parameter outside 0..week_length-1, or none where one is needed."""


class InvalidProbability(AmbiprobError):
    """A probability bound to a procedure parameter lies outside [0, 1]."""


class DegenerateProtocol(AmbiprobError):
    """Monte Carlo redraw cap exceeded without a statement match; nothing else."""


class DslError(AmbiprobError):
    """Base class for protocol-language diagnostics."""

    def __init__(self, message, span=None):
        self.span = span
        if span is not None:
            message = f"{span.line}:{span.column}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    """Tokenizer or parser failure, with source position."""


class UnboundVariable(DslError):
    """A child variable used before any `pick` bound it."""


class InvalidFlipProbability(DslError):
    """A flip literal or a `prob` default in the source text outside [0, 1]."""


class EmptyPick(DslError):
    """A `pick` whose filter matches no child in some reachable family.
    `families` lists those families in `family_str` order, the order of a
    `CaseTable`'s rows; an iterable given for it is read on first use, so a
    large list is built only for a caller that asks."""

    def __init__(self, message, families=(), span=None):
        self._families = families
        super().__init__(message, span)

    @functools.cached_property
    def families(self) -> tuple:
        return tuple(self._families)

    def __reduce__(self):
        # a lazy walk does not pickle, so the list is built for it
        return type(self), self.args, {"_families": self.families, "span": self.span}
