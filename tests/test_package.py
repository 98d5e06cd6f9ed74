"""The package namespace: lazy exports that keep `import entloc` free of numpy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import entloc

ROOT = Path(__file__).resolve().parent.parent


def test_import_entloc_imports_no_module_and_no_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, entloc; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('entloc', 'numpy')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0 and result.stdout.strip() == "['entloc']"


@pytest.mark.parametrize("name", entloc.__all__)
def test_every_exported_name_resolves(name):
    module = entloc._EXPORTS.get(name)
    value = getattr(entloc, name)
    assert name in dir(entloc)
    if module is not None:  # the object its module defines
        assert value is getattr(__import__(f"entloc.{module}", fromlist=[name]), name)


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from entloc import *", namespace)
    assert set(entloc.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        entloc.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from entloc import nope", {})


def test_the_version_is_the_one_pyproject_declares():
    # a regex, not tomllib, which Python 3.10 lacks: the first version key of [project]
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1) == entloc.__version__
