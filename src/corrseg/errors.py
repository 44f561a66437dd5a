"""Exception hierarchy.

Two broad families matter to the CLI: ingestion failures (unreadable or
malformed input, exit code 2) and validation failures (well-formed input
that violates a contract, exit code 3). Any other package error, such as
a worker process that ended early, exits 1. Library callers can catch the
specific classes.
"""

from __future__ import annotations


class CorrsegError(Exception):
    """Base class for all package errors."""


class IngestionError(CorrsegError):
    """Input could not be read or parsed (CLI exit code 2)."""


class ValidationError(CorrsegError):
    """Input parsed but violates a contract (CLI exit code 3)."""


class MissingValues(IngestionError):
    """The expression matrix contains empty or non-numeric cells."""


class ConstantColumn(ValidationError):
    """A gene column has zero variance and cannot be standardized."""

    def __init__(self, gene_id: str):
        self.gene_id = gene_id
        super().__init__(f"gene {gene_id!r} has zero variance; drop or impute it before standardizing")


class NotStandardized(ValidationError):
    """An operation requiring standardized input received raw data."""


class InvalidMatrix(ValidationError):
    """Matrix shape or metadata violates the ExpressionMatrix invariants."""


class KTooLarge(ValidationError):
    """Requested more segments than there are genes."""


class EmptyRegion(ValidationError):
    """A region [start, stop) contains no genes."""


class InvalidRho0(ValidationError):
    """A correlation (background or in-region) outside the admissible open interval."""


class InvalidLoadings(ValidationError):
    """Scenario correlations do not satisfy 0 <= rho0 < rho1 < 1."""


class GridMismatch(ValidationError):
    """Truth labels and calls are not defined on the same gene grid."""


class TooFewProbes(ValidationError):
    """A patient's covariate series has fewer than 2 probes."""

    def __init__(self, patient: str, chromosome: str | None = None):
        self.patient = patient
        where = "" if chromosome is None else f" on chromosome {chromosome!r}"
        super().__init__(f"patient {patient!r} has fewer than 2 covariate probes{where}")


class NoProbesOnChromosome(ValidationError):
    """A patient has no covariate probes on a chromosome that needs alignment."""

    def __init__(self, patient: str, chromosome: str):
        self.patient = patient
        self.chromosome = chromosome
        super().__init__(f"patient {patient!r} has no covariate probes on chromosome {chromosome!r}")


class PatientMismatch(ValidationError):
    """Expression and covariate patient sets differ."""

    def __init__(self, missing: list[str], extra: list[str]):
        self.missing = missing
        self.extra = extra
        parts = []
        if missing:
            parts.append("missing from covariate: " + ", ".join(sorted(missing)))
        if extra:
            parts.append("absent from expression: " + ", ".join(sorted(extra)))
        super().__init__("patient sets differ; " + "; ".join(parts))


class SchemaError(ValidationError):
    """A supplied file does not follow the documented column schema."""


class DPBandFailed(CorrsegError):
    """A forked process running a share of a DP (a band of rows or covariate
    batches) died or raised before its work was done (CLI exit code 1)."""

    @classmethod
    def ended(cls, what: str, exitcode: int) -> DPBandFailed:
        """The error naming what the process did and how it ended."""
        how = f"exit code {exitcode}" if exitcode >= 0 else f"signal {-exitcode}"
        return cls(f"{what} ended with {how} before its work was done")


class DegenerateNormalizationWarning(UserWarning):
    """The likelihood curve is flat from K=1 to K_max; selection falls back to K=1."""


class DegenerateCovariateWarning(UserWarning):
    """The covariate has zero variance; correction reduces to centering."""
