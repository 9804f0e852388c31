import importlib
import pkgutil

import pytest

import herglotz


@pytest.fixture(autouse=True)
def cold_tables():
    """Empty every process-wide table, each object a herglotz module holds with
    a cache_clear (the functools.lru_cache tables), before every test, so that
    a test counting evaluations does not depend on which tests ran before it."""
    for info in pkgutil.iter_modules(herglotz.__path__):
        for obj in vars(importlib.import_module(f"herglotz.{info.name}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
