"""Exception hierarchy shared by all apobench modules."""


class ApoBenchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ApoBenchError):
    """Operand shapes do not conform."""


class OracleScaleError(ApoBenchError):
    """Input exceeds the size guard of an oracle-scale routine."""


class ContractError(ApoBenchError):
    """A precondition on the inputs was violated."""


class NumericalError(ApoBenchError):
    """A numerical failure (non-finite value, failed factorization).

    ``pivot`` carries the 1-based index of the failing pivot when the error
    came out of a Cholesky factorization, else None.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class ConvergenceError(ApoBenchError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, grad_norm=None):
        super().__init__(message)
        self.grad_norm = grad_norm


class TrainingDivergedError(ApoBenchError):
    """Training loss exceeded the divergence guard or became non-finite at
    ``step``; ``rows`` holds the metric rows of the steps before it."""

    def __init__(self, message, step, rows=()):
        super().__init__(message)
        self.step = step
        self.rows = list(rows)


class ConfigError(ApoBenchError):
    """Invalid experiment configuration. ``pointer`` is a JSON-pointer path."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


class IngestionError(ApoBenchError):
    """Unparseable external data. Carries 0-based row/column indices."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col
