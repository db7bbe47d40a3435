"""Exception types shared across the package."""


class EigensamplerError(Exception):
    """Base class for all package-specific errors."""


class HamiltonianFormatError(EigensamplerError, ValueError):
    """Malformed Hamiltonian file or text.

    Carries the line number (1-based) when known.
    """

    def __init__(self, message, line=None):
        detail = message
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)
        self.line = line


class StateSpecError(EigensamplerError, ValueError):
    """Malformed or non-normalized guiding-state specification."""


class ValidationError(EigensamplerError, ValueError):
    """An object violates one of its declared invariants."""


class DenseLimitError(EigensamplerError, ValueError):
    """A dense computation was requested beyond the configured size cap."""


class ZeroKappaError(EigensamplerError, ValueError):
    """Shift/rescale needs a strictly positive total norm bound."""


class DegreeOverflowError(EigensamplerError, ValueError):
    """No polynomial up to the degree cap passed grid verification."""

    def __init__(self, message, degree_cap=None, best_error=None):
        super().__init__(message)
        self.degree_cap = degree_cap
        self.best_error = best_error


class GapError(EigensamplerError, ValueError):
    """The decision gap (a, b) is invalid for the requested accuracy."""


class UndefinedRatioError(EigensamplerError, ArithmeticError):
    """A sampled index has zero guiding amplitude but a nonzero target value.

    The ratio estimator is undefined there; surfacing this explicitly beats
    silently biasing the estimate.
    """

    def __init__(self, index):
        super().__init__(
            f"sampled index {index} has zero guiding amplitude but nonzero "
            f"target value; the ratio estimator is undefined on this input"
        )
        self.index = index


class CostCapExceeded(EigensamplerError, RuntimeError):
    """Predicted sampling cost exceeds the configured cap.

    predicted and cap are floats (predicted counts overflow integers for
    strict-policy parameters). breakdown is the whole plan that was refused:
    the policy, degree, error target err_per_power, repetitions
    reps_per_power, chains_per_batch, and the chains_per_power and
    per_power leaf operations of each power, plus the filter and shift when
    a threshold test of the solver raised it.
    """

    def __init__(self, predicted, cap, breakdown=None, message=None):
        if message is None:
            message = (
                f"predicted cost {predicted:.3e} leaf operations exceeds "
                f"the cost cap {cap:.3e}"
            )
        super().__init__(message)
        self.predicted = float(predicted)
        self.cap = float(cap)
        self.breakdown = dict(breakdown or {})
