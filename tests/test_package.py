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


def test_import_builds_no_phase_table():
    # the tables of u(k) every G_f and every run from V(2) read, and each
    # family's first chunk of sums, are built by the first sum and the first
    # run, not at import
    code = ("import ngonspiral, ngonspiral.cli, ngonspiral.figures\n"
            "assert ngonspiral.spiral._limit_phases.cache_info().currsize == 0\n"
            "ngonspiral.limit_point(1.0)\n"
            "assert ngonspiral.spiral._limit_phases.cache_info().currsize == 1\n"
            # nor the first chunk of the dense runs, nor any family's sums
            # over it, by the import of _arrays; a family's first run builds both
            "import ngonspiral._arrays as arrays\n"
            "assert arrays._first_chunk.cache_info().currsize == 0\n"
            "assert arrays._first_run.cache_info().currsize == 0\n"
            "ngonspiral.vertex(ngonspiral.power_law(1.0), 3)\n"
            "assert arrays._first_chunk.cache_info().currsize == 1\n"
            "assert arrays._first_run.cache_info().currsize == 1\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_the_limit_cache_empty():
    # continuation()'s G_f cache fills on the first interpolant, not at
    # import, and the limits of the convergence module leave it empty
    code = ("import ngonspiral, ngonspiral.cli, ngonspiral.figures\n"
            "cache = ngonspiral.spiral._cached_limit_series\n"
            "assert cache.cache_info().currsize == 0\n"
            "ngonspiral.limit_point(1.0)\n"
            "assert cache.cache_info().currsize == 0\n"
            "ngonspiral.interpolated_vertex(ngonspiral.power_law(1.0), 3.5)\n"
            "assert cache.cache_info().currsize == 1\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_numpy_is_imported_lazily(tmp_path):
    # numpy is most of the import time; only the dense kernels, the batched
    # curve tails, the closed forms at an array (all in _arrays) and the
    # crossing scan need it, so the import, the scalar commands (fig_q
    # reads q_closed one float at a time), a single interpolated vertex and
    # a closed form at a float skip it, and _arrays with it, after each
    svg = tmp_path / "fig3b.svg"
    q_svg = tmp_path / "fig4b.svg"
    calls = [
        "main(['limit', '--s', '0.5']) == 0",
        "main(['classify', '--length', 'power:-1']) == 0",
        "main(['curve', '--s-min', '0.0000726', '--s-max', '1.77', '--samples', '10',"
        f" '--out', {str(svg)!r}]) == 0",
        "main(['interp', '--length', 'power:1', '--n', '3.5']) == 0",
        f"main(['telescope', '--fig', 'q', '--out', {str(q_svg)!r}]) == 0",
        "ngonspiral.interpolated_vertex(ngonspiral.power_law(0.0), 50.5)",
        "ngonspiral.telescoping.center_closed(2.5)",
    ]
    loaded = "assert not {'numpy', 'ngonspiral._arrays'} & set(sys.modules), %r\n"
    code = "import sys, ngonspiral\n" + loaded % "import"
    code += "from ngonspiral.cli import main\n"
    code += "".join(f"assert {call}\n" + loaded % call for call in calls)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert svg.stat().st_size > 0
    assert q_svg.stat().st_size > 0


def test_line_counts_classify_each_line_once():
    from count_lines import count

    source = '''"""Module docstring,

over three lines."""
import math  # a comment after code is code

# a comment line


def f(x):
    """One line."""
    text = """a string

    in code"""
    return math.sqrt(x)
'''
    assert count(source) == {"code": 5, "docstring": 3, "comment": 1, "blank": 5, "total": 14}
