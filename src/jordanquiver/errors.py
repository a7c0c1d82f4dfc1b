"""Exception types shared across the package, and the strict JSON readers.

ValidationError marks a mathematically inconsistent input (dimension
mismatches, negative multiplicities, divisibility failures).  ParseError
marks malformed textual or JSON input.  The CLI maps the two classes to
distinct exit codes so that pipelines can tell them apart.

Every JSON parser reads its fields through ``json_value``, ``json_field``
and ``json_array``.  ``kind`` is int, bool, str, list or dict, the type
``json.loads`` gives a JSON integer, boolean, string, array or object.
It must match exactly and nothing is converted, so ``5.9`` never becomes
5 and ``"false"`` never becomes true.  Errors name the JSON path of the
offending field, such as ``seed.mult[0]``; the empty path is the input.
An object names its fields with ``json_object``, so a field that no
reader reads, such as a misspelt ``include_P``, is refused rather than
ignored.  ``int_tuple`` and ``require_ints`` hold the library
constructors to the same rule.

``Value`` is the base of the package's immutable records: a Jordan type,
a tube or split profile, a tree class, a descriptor, a report.  A record
lists its fields in ``__slots__`` and its ``__init__`` checks the
arguments, works out the normalised fields and sets each once.  It then
refuses assignment and deletion, equals only a record of its own class
with equal fields, hashes as the tuple of its fields, so the order of a
set of records depends on the fields alone, and prints as
``Name(field=value, ...)``.  A field whose repr would need an int longer
than ``sys.get_int_max_str_digits()`` prints as a note that names it, so
``repr`` never raises.
"""

import sys
from operator import attrgetter


class ValidationError(ValueError):
    """A value violates a mathematical precondition or invariant."""


class ParseError(ValueError):
    """Textual or JSON input could not be parsed."""


class Value:
    """An immutable record whose fields are its class's ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # ``_fields(record)``, the tuple of the fields, read in C; an
        # attrgetter of one name gives the bare value
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def _set(self, *values) -> None:
        """Set the fields, in ``__slots__`` order; only ``__init__`` calls it."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={field_repr(self, name)}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        # copy and pickle restore a slotted object from (None, {name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_KINDS = {int: "a JSON integer", bool: "a JSON boolean", str: "a JSON string",
          list: "a list", dict: "an object"}
_REQUIRED = object()


def json_value(value, kind: type, path: str):
    """``value`` if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        # a container is named by its type, since its repr has any length
        got = repr(value) if kind in (int, bool, str) else type(value).__name__
        got = "null" if value is None else got
        raise ParseError(f"{path or 'JSON input'} must be {_KINDS[kind]}, got {got}")
    return value


def int_tuple(values, field: str) -> tuple[int, ...]:
    """``values`` as a tuple, ValidationError unless every entry is exactly an int.

    The library constructors' counterpart of ``json_value``: ``2.7`` is
    never truncated to 2 and ``True`` is no 1.
    """
    out = tuple(values)
    if not set(map(type, out)) <= {int}:
        i, x = next((i, x) for i, x in enumerate(out) if type(x) is not int)
        raise ValidationError(f"{field}[{i}] must be an int, got {x!r}")
    return out


def require_ints(**args) -> None:
    """ValidationError naming the first argument that is not exactly an int."""
    for name, value in args.items():
        if type(value) is not int:
            raise ValidationError(f"{name} must be an int, got {value!r}")


def json_object(data, fields, path: str = "", name: str = "") -> dict:
    """The object ``data`` at ``path``, ParseError if it has a key outside ``fields``.

    The message names the object by its path, or by ``name`` at the top.
    """
    bad = set(json_value(data, dict, path)) - set(fields)
    if bad:
        raise ParseError(f"unknown {path or name} fields {sorted(bad)}")
    return data


def require_printable(values, what: str) -> None:
    """ValidationError if ``str`` cannot write an int in ``values``, as it has
    more digits than ``sys.get_int_max_str_digits()`` allows (0: no limit)."""
    # Python 3.10.0 to 3.10.6 have no limit, and no get_int_max_str_digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # below 2**(3 limit) < 10**limit an int is short enough, so 10**limit is
    # computed only for a value that may not be
    if limit and any(abs(v) >= 10 ** limit for v in values if v.bit_length() > 3 * limit):
        raise ValidationError(
            f"{what} has more than {limit} digits, the limit for printing an integer"
        )


def field_repr(record, name: str) -> str:
    """The repr of ``record``'s field ``name``, or a note that names the field
    where repr refuses an int longer than ``sys.get_int_max_str_digits()``."""
    try:
        return repr(getattr(record, name))
    except ValueError:  # so there is a limit, and a getter
        return f"<{name}: an int of more than {sys.get_int_max_str_digits()} digits>"


def json_field(data, key: str, kind: type, path: str = "", default=_REQUIRED):
    """Field ``key`` of the object ``data`` at ``path``; ``default`` only if absent."""
    where = f"{path}.{key}" if path else key
    if key not in json_value(data, dict, path):
        if default is _REQUIRED:
            raise ParseError(f"{where} is required")
        return default
    return json_value(data[key], kind, where)


def json_array(data, key: str, kind: type, path: str = "") -> list:
    """Required array field ``key`` of ``data`` whose items are all of ``kind``."""
    where = f"{path}.{key}" if path else key
    return [json_value(x, kind, f"{where}[{i}]")
            for i, x in enumerate(json_field(data, key, list, path))]
