"""Exception types shared across the package, the JSON integer reader, and
`held`, the one memo map of matroids and invariants."""


class PresentationError(ValueError):
    """A matroid presentation (or other input payload) is malformed."""


class ExactnessError(ValueError):
    """An exact-arithmetic identity failed: non-integral division, a negative
    coefficient where none is allowed, or an inconsistent deck/invariant.

    Raising this instead of rounding is deliberate; it is how the library
    reports that an input vector is not the invariant of any matroid.
    """


def json_int(value) -> int:
    """A JSON integer that is no bool, or a string of ASCII decimal digits
    with an optional leading '-', as canonical output writes big integers;
    int() would also read 6.9, true, "6_0" or " 6 " as a value not given."""
    if type(value) is int:
        return value
    if (isinstance(value, str) and value.isascii()
            and value.removeprefix("-").isdigit()):
        return int(value)
    raise PresentationError(f"{value!r} is not an integer")


def held(value, key, compute, *args):
    """compute(value, *args), run on the first call for `key` and held in
    value's memo map as long as value lives.  The module that computes an
    entry owns its key."""
    memo = value._held
    out = memo.get(key)
    if out is None:
        out = memo[key] = compute(value, *args)
    return out
