"""Exception hierarchy shared by all modules, and their one check of an
order (a degree, level or node count)."""


class RelBargmannError(Exception):
    """Base class for all library errors."""


class DomainError(RelBargmannError):
    """An argument lies outside the validated evaluation domain."""


class PoleError(RelBargmannError):
    """A gamma factor or denominator Pochhammer symbol hits a pole."""


class NonConvergenceError(RelBargmannError):
    """A series or quadrature did not converge within its budget."""


class InputFormatError(RelBargmannError):
    """An input file or sampled function fails validation."""


def _check_order(k, what: str) -> int:
    """k as an int; DomainError unless it is a nonnegative integer (a NaN,
    an inf, a fraction or a non-number included)."""
    try:
        ok = k >= 0 and k == int(k)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{what} must be a nonnegative integer")
    return int(k)
