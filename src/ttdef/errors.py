"""Shared exception types. All carry an optional byte offset into the source text."""


class TtdefError(Exception):
    def __init__(self, message, offset=None):
        self.message = message
        self.offset = offset
        super().__init__(message)

    def __str__(self):
        if self.offset is None:
            return self.message
        return "%s (at byte %d)" % (self.message, self.offset)


class SpecSyntaxError(TtdefError):
    """Malformed tree or spec text."""


class UnknownSymbol(TtdefError):
    pass


class ArityMismatch(TtdefError):
    pass


class UnknownAttribute(TtdefError):
    pass


class NoSuchNode(TtdefError):
    pass


class RootMarkerSynRule(TtdefError):
    """A synthesized attribute appeared on the left-hand side of a root-marker rule."""


class DuplicateLhsInDeterministic(TtdefError):
    """Two rules share a left-hand side in a machine declared deterministic."""


class NotApplicable(TtdefError):
    """An analysis or construction refused its input; message carries the reason."""


class AlphabetMismatch(TtdefError):
    pass


class NotFunctionalInput(TtdefError):
    """A caller-certified-functional transducer produced two outputs on one input."""
