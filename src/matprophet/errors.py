"""Shared exception types and the one enumeration cap."""

import os

DEFAULT_ENUM_CAP = 1 << 20


class EnumerationCapError(RuntimeError):
    """An exact computation would enumerate more states than the configured
    cap allows. Raise the cap or switch to a Monte Carlo mode."""


class VerificationError(AssertionError):
    """A guarantee check that should hold numerically did not."""


def check_enum_cap(count, what):
    """Refuse an exact computation of `count` states (`what` names them)
    above the enumeration cap: MATPROPHET_ENUM_CAP, else the default. The
    variable is read here, at every check, and nowhere else."""
    cap = os.environ.get("MATPROPHET_ENUM_CAP", "").strip() \
        or str(DEFAULT_ENUM_CAP)
    if not cap.isdecimal():
        raise ValueError("MATPROPHET_ENUM_CAP must be a nonnegative "
                         f"integer, got {cap!r}")
    limit = int(cap)
    if count > limit:
        raise EnumerationCapError(
            f"{what} exceed the enumeration cap {limit}")
