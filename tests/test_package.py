import types

import ngonspiral


def test_every_exported_name_resolves():
    assert len(set(ngonspiral.__all__)) == len(ngonspiral.__all__)
    namespace: dict = {}
    exec("from ngonspiral import *", namespace)
    for name in ngonspiral.__all__:
        assert namespace[name] is getattr(ngonspiral, name)
        # no submodule shadows an exported function of the same name
        assert not isinstance(namespace[name], types.ModuleType)
