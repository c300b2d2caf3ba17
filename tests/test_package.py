"""The top-level package is lazy: its public names import on first use."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_after(statement: str) -> list[str]:
    """Modules of the solver stack, and networkx, a fresh interpreter holds
    after ``statement``."""
    probe = (
        f"{statement}\n"
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.startswith(('repro.core', 'scipy', 'networkx'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(done.stdout.strip())


def test_the_analysis_tools_do_not_load_the_solver_stack():
    assert loaded_after("import repro.analysis") == []
    assert loaded_after("import repro") == []


def test_the_path_search_and_a_broker_do_not_load_networkx():
    # networkx is a test dependency: only the path oracle imports it.
    assert "networkx" not in loaded_after("import repro.topology")
    assert "networkx" not in loaded_after(
        "from repro.api import SliceBroker\n"
        "from repro.core.benders import BendersSolver\n"
        "from repro.topology import testbed_topology\n"
        "SliceBroker(testbed_topology(), BendersSolver())"
    )


def test_a_public_name_loads_its_module():
    assert "repro.core.benders" in loaded_after("from repro import BendersSolver")


@pytest.mark.parametrize("name", [name for name in repro.__all__ if name != "__version__"])
def test_every_public_name_is_its_module_object(name):
    module = importlib.import_module(repro._EXPORTS[name])
    assert getattr(repro, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["__version__"] == repro.__version__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro, "no_such_name")
