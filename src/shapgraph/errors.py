"""Exception types shared across the package."""


class ShapgraphError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(ShapgraphError):
    """A table over ``graphs.ENUMERATION_LIMIT`` keys, refused by
    :func:`shapgraph.graphs.check_size` before it is built, or a plan over the
    masking harness's evaluation budget.  ``count`` is the keys the table
    needed (for a listing that stopped part-way, the keys reached when it
    stopped), or the evaluations the plan needed."""

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class ConfigurationError(ShapgraphError, ValueError):
    """Invalid or inconsistent configuration of an operation."""


class UnsupportedTopologyError(ShapgraphError, ValueError):
    """An operation only defined for chain or grid graphs got another kind."""


class ZeroMassError(ShapgraphError):
    """A conditioning event has probability zero under the joint."""


class EvaluationError(ShapgraphError):
    """A model evaluation failed; carries the offending context."""

    def __init__(self, message: str, batch_indices: list[int] | None = None):
        super().__init__(message)
        self.batch_indices = batch_indices or []


class ProtocolError(ShapgraphError):
    """The external model wire protocol was violated."""
