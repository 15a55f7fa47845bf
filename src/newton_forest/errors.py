"""Exception types shared across the package."""

from __future__ import annotations


class NewtonForestError(Exception):
    """Base class for all package errors.

    A subclass keeps its constructor arguments as ``args``, so that
    ``cls(*args)`` rebuilds it: that is how pickle carries an error out of a
    worker process.
    """


class TreeStructureError(NewtonForestError):
    """The input is not a structurally well-formed decorated rooted tree.

    Carries every structural problem found, not just the first.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(self.problems)

    def __str__(self) -> str:
        return "; ".join(self.problems)


class ParseError(NewtonForestError):
    """A tree document could not be parsed."""


class NotMinimallyCompleteError(NewtonForestError):
    """An analysis that assumes a minimally complete tree was given one that is not."""


class NotInitialVertexError(NewtonForestError, ValueError):
    """A comb decomposition was asked for at a vertex outside the initial set."""


class InternalInconsistencyError(NewtonForestError):
    """A proven identity failed at runtime: an engine bug or impossible input state."""


class GenerationError(NewtonForestError):
    """The random tree generator exhausted its attempt budget."""

    def __init__(self, attempts: int, message: str):
        self.attempts = attempts
        self.message = message
        super().__init__(attempts, message)

    def __str__(self) -> str:
        return f"{self.message} (after {self.attempts} attempts)"
