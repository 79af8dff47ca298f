"""The package's public names: ``qsym.__all__`` and a star import."""

from types import ModuleType

import qsym


def test_all_is_sorted_and_holds_no_module():
    assert qsym.__all__ == sorted(qsym.__all__)
    assert len(qsym.__all__) == 47
    assert not any(isinstance(getattr(qsym, name), ModuleType) for name in qsym.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qsym import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == qsym.__all__
    assert all(namespace[name] is getattr(qsym, name) for name in qsym.__all__)
