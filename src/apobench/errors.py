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
    """A numerical failure (non-finite value, failed factorization); the
    message says which."""


class ConvergenceError(ApoBenchError):
    """An iterative solver hit its iteration cap before reaching tolerance;
    the message names the cap and the gradient norm it stopped at."""


class TrainingDivergedError(ApoBenchError):
    """Training loss exceeded the divergence guard or became non-finite at
    ``step``; the training loop's sink holds the rows of the steps before it."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class ConfigError(ApoBenchError):
    """Invalid configuration; the message leads with the JSON pointer or flag at fault."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)


class IngestionError(ApoBenchError):
    """Unparseable external data; the message says where in the data."""
