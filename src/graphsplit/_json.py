"""Strict reading of integer and float fields from decoded JSON."""

import numbers


def integer(value):
    """value as an int, which an integral float such as 1e4 also gives.

    A bool, a string, a fraction or a non-finite number raises a ValueError,
    where int() would accept, parse or truncate it.
    """
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def real(value):
    """value as a float; a bool or a string raises a ValueError, where float()
    would read true as 1.0 and "0.5" as 0.5."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def reals(value):
    """value with every number in it, down nested lists, read by real."""
    if isinstance(value, list):
        return [reals(item) for item in value]
    return real(value)
