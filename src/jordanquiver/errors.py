"""Exception types shared across the package.

ValidationError marks a mathematically inconsistent input (dimension
mismatches, negative multiplicities, divisibility failures).  ParseError
marks malformed textual or JSON input.  The CLI maps the two classes to
distinct exit codes so that pipelines can tell them apart.  ``json_int``
is the strict check that JSON parsers apply to integer fields.
"""


class ValidationError(ValueError):
    """A value violates a mathematical precondition or invariant."""


class ParseError(ValueError):
    """Textual or JSON input could not be parsed."""


def json_int(value, path: str) -> int:
    """``value`` if it is a JSON integer; ParseError naming ``path`` otherwise.

    Floats, strings and booleans (a subclass of int in Python) are
    rejected rather than converted, so ``5.9`` never becomes 5.
    """
    if type(value) is not int:
        raise ParseError(f"{path} must be a JSON integer, got {value!r}")
    return value
