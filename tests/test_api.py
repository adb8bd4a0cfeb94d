"""Public API: ``rank3.__all__`` is sorted, resolves, and is documented."""

import inspect

import pytest

import rank3

DOCUMENTED = [name for name in rank3.__all__
              if inspect.isclass(getattr(rank3, name, None))
              or inspect.isfunction(getattr(rank3, name, None))]


def test_all_sorted_and_unique():
    assert rank3.__all__ == sorted(set(rank3.__all__))


def test_every_name_resolves():
    assert [name for name in rank3.__all__ if not hasattr(rank3, name)] == []


@pytest.mark.parametrize("name", DOCUMENTED)
def test_own_docstring(name):
    obj = getattr(rank3, name)
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    # a dataclass without a docstring gets its signature, Name(field: type, ...)
    assert doc and doc.strip() and not doc.startswith(name + "(")
