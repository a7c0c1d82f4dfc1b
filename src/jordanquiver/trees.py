"""Tree classes of stable translation quiver components.

A component of the stable Auslander-Reiten quiver is Z[T]/G for a
directed tree T, whose underlying graph is its tree class (Webb, Math.
Z. 179, 1982).  ``components`` tags a split profile with one and
``quiver`` reads the minimal additive function off one; neither needs
the other for it.
"""

from __future__ import annotations

import re

from .errors import ParseError, ValidationError, Value

# every tree class by its canonical name: D~n for n >= 4 in plain ASCII
# decimal, and a finite Dynkin class as its letter and rank
_TREE_CLASS = re.compile(
    r"A_inf(_inf)?|A12_tilde|D_inf|E[678]_tilde|D(?P<n>[4-9]|[1-9][0-9]+)_tilde"
    r"|(?P<finite>[ADE][0-9]+)"
)


class TreeClass(Value):
    """Tree class of a stable translation quiver component, stored as its name.

    ``TreeClass(name)`` accepts only the canonical name, so ``str``
    gives back exactly the text it was built from.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if type(name) is not str:
            raise ValidationError(f"tree class name must be a str, got {name!r}")
        if not _TREE_CLASS.fullmatch(name):
            what = "bad" if name.startswith("D") and name.endswith("_tilde") else "unknown"
            raise ParseError(f"{what} tree class {name!r}")
        self._set(name)

    @property
    def n(self) -> int | None:
        """The index n of D~n, None for every other class."""
        n = _TREE_CLASS.fullmatch(self.name).group("n")
        return None if n is None else int(n)

    @property
    def finite(self) -> bool:
        """Whether this is a finite Dynkin class such as A5."""
        return _TREE_CLASS.fullmatch(self.name).group("finite") is not None

    def __str__(self) -> str:
        return self.name
