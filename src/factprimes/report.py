"""Per-point evaluation record for one inequality check, and the base of
the package's records that cannot be tuples.

Records are ``typing.NamedTuple`` classes where a tuple fits, and
:class:`Record` subclasses where it does not; neither generates code when
the package is imported, as a dataclass does.
"""

from __future__ import annotations

from typing import NamedTuple

# Slacks smaller than this are flagged marginal so a reader knows the
# comparison is within floating-point shouting distance of the boundary.
MARGINAL_SLACK = 1e-6


class BoundReport(NamedTuple):
    """Outcome of evaluating one bound at one point.

    slack is signed with positive meaning the inequality holds with margin,
    so ``holds == (slack > 0)`` up to the tie-handling of each evaluator.
    ``applicable`` is False when the point lies outside the bound's stated
    validity window (the check is still evaluated and reported).
    """

    theorem_id: str
    n: float
    lhs: float
    rhs: float
    slack: float
    holds: bool
    applicable: bool = True
    marginal: bool = False


class Record:
    """A read-only record whose fields, named in ``_fields`` in the order of
    its ``__init__`` arguments, are set once by ``__init__``.

    For records that hold arrays, iterate differently from a tuple or
    validate their arguments.  Assigning to or deleting an attribute raises
    AttributeError, as for a NamedTuple field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
