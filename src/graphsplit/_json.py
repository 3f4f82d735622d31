"""Strict reading of decoded JSON, which `cli` uses to read a config: integer
and float fields, and the field names of an object; and the integer checks
that the library modules make of a size or count argument."""

import numbers


def whole(value):
    """Whether value is an integer and not a bool, which Python counts as one.
    An exact int, the common case, is decided by its type alone."""
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name, value, least):
    """Raise a ValueError naming the argument unless value is an integer,
    not a bool, of at least `least`."""
    if not whole(value) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def integer(value):
    """value as an int, which an integral float such as 1e4 also gives.

    A bool, a string, a fraction or a non-finite number raises a ValueError,
    where int() would accept, parse or truncate it.
    """
    if not (whole(value) or isinstance(value, float) and value.is_integer()):
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


def known_fields(obj, fields):
    """Raise a ValueError naming the first key of the object obj that is not
    one of fields, so that a misspelled field is not silently ignored."""
    for key in obj:
        if key not in fields:
            raise ValueError(f'unknown field "{key}"')
