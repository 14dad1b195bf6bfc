import importlib.util
import os
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "degstab" / "_fastcore.c"


@pytest.fixture(scope="session")
def fastcore(tmp_path_factory):
    """The compiled kernels: the installed ``degstab._fastcore`` if it
    imports, else one compiled from the C source into a temporary directory
    and loaded without entering ``sys.modules``. Skips only when there is no
    C compiler or no ``Python.h``; a compile error fails the test, and so
    does a warning when the compiler is gcc or clang (``-Wall -Werror``)."""
    try:
        from degstab import _fastcore
    except ImportError:
        pass
    else:
        return _fastcore
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").is_file():
        pytest.skip("no Python.h to compile the C kernels against")
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the C kernels")

    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    compiler = Path(shlex.split(cc)[0]).name
    strict = ["-Wall", "-Werror"] if "gcc" in compiler or "clang" in compiler else []
    out = tmp_path_factory.mktemp("fastcore")
    ext = Extension("degstab._fastcore", [str(SOURCE)], extra_compile_args=strict)
    dist = Distribution({"ext_modules": [ext]})
    cmd = build_ext(dist)
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "degstab._fastcore", cmd.get_ext_fullpath("degstab._fastcore")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
