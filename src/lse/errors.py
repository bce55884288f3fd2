"""Exception types shared across the toolkit."""

import math
import sys


class LSEError(Exception):
    """Base class for all toolkit errors."""


class DataError(LSEError):
    """Malformed, inconsistent, or degenerate input data."""


class SizeError(DataError):
    """An array that NumPy cannot allocate; fields names the sizes that
    make it, what says how large it is."""

    def __init__(self, fields, shape):
        self.fields = fields
        self.what = (f"an array of {' x '.join(map(str, shape))} values is more than "
                     "NumPy can allocate")
        super().__init__(f"{' and '.join(fields)}: {self.what}")

    @classmethod
    def check(cls, sizes, *shapes):
        """Raise for the first of shapes, each a tuple of keys of sizes, whose
        array holds more than intp-max / 8 values: NumPy sizes no array past
        intp-max bytes (a ValueError), and the bound is on 8-byte values, so
        that a count that fits np.intp cannot fail so."""
        for fields in shapes:
            shape = [sizes[name] for name in fields]
            if math.prod(shape) > sys.maxsize // 8:
                raise cls(fields, shape)
