"""Derived fields: what a snapshot leaves out and a restore rebuilds.

Caches, scratch buffers and wall-clock accounting need not ride in a
checkpoint, and wall-clock values must not, or two runs of one tree
would write different bytes.  A class names them once, in ``DERIVED``:
each field with its reset value (deep-copied, so no two objects share
a mutable one) or a callable of the instance that rebuilds it.
:class:`Derived` pickles the other fields and, on restore, calls
:func:`forget`; so does an ``__init__`` or an inline reset that assigns
exactly the declared set.
"""

from __future__ import annotations

import copy
from typing import Any, ClassVar, Mapping

__all__ = ["Derived", "forget"]


class Derived:
    """Mixin: pickle the instance's fields (``__dict__``, or the class's
    own ``__slots__``) minus ``DERIVED``'s; rebuild those on restore."""

    __slots__ = ()

    #: Field name -> reset value, or a callable of the instance.
    DERIVED: ClassVar[Mapping[str, Any]] = {}

    def __getstate__(self) -> dict:
        derived = self.DERIVED
        try:
            fields = vars(self).items()
        except TypeError:  # slotted
            fields = ((name, getattr(self, name)) for name in self.__slots__)
        return {name: value for name, value in fields if name not in derived}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        forget(self)


def forget(obj: Derived) -> None:
    """Reset every field ``obj``'s class declares derived."""
    for name, reset in obj.DERIVED.items():
        setattr(obj, name, reset(obj) if callable(reset) else copy.deepcopy(reset))
