"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class RecordFieldError(PipelineError):
    """A record field is not a string, is empty, or holds or borders on a
    reserved separator; or a record has the wrong number of fields."""


class VariantMismatchError(PipelineError):
    """Two records (or record sets) of different variants were compared."""


class LinearizationError(PipelineError):
    """A record set cannot be rendered in the linear string format."""


class DelinearizeError(PipelineError):
    """No record could be parsed out of a linearized string."""


class AllocationError(PipelineError):
    """An epoch subset plan is infeasible for the requested parameters."""


class EmptySubsetError(PipelineError):
    """Subset assembly produced no training pairs and the reserve is empty."""


class GatewayError(PipelineError):
    """A model backend failed (unreachable endpoint, protocol violation,
    misaligned response, unknown checkpoint tag)."""


class MetricError(PipelineError):
    """Metric inputs are unusable (misaligned corpora, empty reference,
    degenerate idf)."""


class DatasetError(PipelineError):
    """A dataset file is missing or structurally unreadable."""


class EpochError(PipelineError):
    """A self-training epoch aborted; carries the epoch index for resume."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch
