"""Exception hierarchy shared across the package."""


class OwnetError(Exception):
    """Base class for all errors raised by ownet."""


class LoadError(OwnetError):
    """A CSV input failed validation.

    Carries the offending file and, where known, the 1-based line number.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
            if line is not None:
                prefix = f"{path}:{line}: "
        super().__init__(prefix + message)


class GraphError(OwnetError):
    """Structural violation while building or querying a graph."""


class FitError(OwnetError):
    """Power-law fitting is impossible on the given samples."""


class ConvergenceError(OwnetError):
    """An iterative solver exhausted its iteration budget."""


class PipelineError(OwnetError):
    """A pipeline stage could not run or failed."""


class InvariantError(OwnetError):
    """An internal consistency check failed: a bug, not bad input."""
