"""Immutable records, built without generating code for each class.

A subclass's annotated class attributes are its fields, in order; a
class-level value is that field's default.  ``__post_init__``, when a
class defines one, validates and may coerce fields with
``object.__setattr__``.  Records compare and hash by identity.
"""

from inspect import Parameter, Signature, get_annotations


class Record:
    def __init_subclass__(cls):
        notes = get_annotations(cls)
        cls._fields = tuple(notes)
        cls.__signature__ = Signature([
            Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, annotation=note,
                      default=cls.__dict__.get(name, Parameter.empty))
            for name, note in notes.items()])

    def __init__(self, *args, **kwargs):
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        self.__dict__.update(bound.arguments)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record with ``changes`` over this one's fields."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)
