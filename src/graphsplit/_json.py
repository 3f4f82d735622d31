"""Strict reading of integer fields from decoded JSON."""

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
