import importlib
import subprocess
import sys
import types

import ngonspiral

SUBMODULES = ("numerics", "spiral", "convergence", "lengthfns", "telescoping",
              "intersect", "render", "figures", "cli")


def test_every_exported_name_resolves():
    assert len(set(ngonspiral.__all__)) == len(ngonspiral.__all__)
    namespace: dict = {}
    exec("from ngonspiral import *", namespace)
    for name in ngonspiral.__all__:
        assert namespace[name] is getattr(ngonspiral, name)
        # no submodule shadows an exported function of the same name
        assert not isinstance(namespace[name], types.ModuleType)
    # nor does a submodule export a name twice, or one it no longer defines
    for sub in SUBMODULES:
        module = importlib.import_module(f"ngonspiral.{sub}")
        assert len(set(module.__all__)) == len(module.__all__), sub
        for name in module.__all__:
            assert hasattr(module, name), (sub, name)


def test_numpy_is_imported_lazily():
    # numpy is most of the import time; only the dense kernels and the
    # crossing scan need it, so the import and a scalar command skip it
    code = (
        "import sys, ngonspiral\n"
        "assert 'numpy' not in sys.modules\n"
        "from ngonspiral.cli import main\n"
        "assert main(['limit', '--s', '0.5']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
