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
``int_tuple`` and ``require_ints`` hold the library constructors to the
same rule.
"""


class ValidationError(ValueError):
    """A value violates a mathematical precondition or invariant."""


class ParseError(ValueError):
    """Textual or JSON input could not be parsed."""


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
