"""The package resolves its public names on first use, and each command
imports only the layers it needs."""

import importlib

import pytest

import yangsym

ENGINE = {f"yangsym.{m}" for m in ("rationals", "series", "tau", "pbw", "tensor", "symfun",
                                    "capelli", "suites", "serialize")} | {"dataclasses"}


def test_package_names_are_the_layer_objects():
    assert yangsym.__all__ and len(set(yangsym.__all__)) == len(yangsym.__all__)
    for name in yangsym.__all__:
        module = importlib.import_module(f"yangsym.{yangsym._MODULE_OF[name]}")
        assert getattr(yangsym, name) is getattr(module, name), name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(yangsym, "no_such_name")


def test_from_package_import_submodule(fresh_python):
    # bench/tracer.py reaches the layers this way after importing yangsym.cli
    assert fresh_python(
        "import yangsym.cli; from yangsym import capelli, serialize; "
        "print(type(capelli).__name__, capelli.__name__, serialize.__name__)"
    ) == ["module", "yangsym.capelli", "yangsym.serialize"]


def _loaded(fresh_python, code):
    """The modules loaded after running code in a fresh interpreter."""
    return set(fresh_python(code + "; import sys; print(*sys.modules)"))


def test_cli_import_leaves_hashlib_unloaded(fresh_python):
    # hashlib loads OpenSSL; only a cache key needs it
    assert not _loaded(fresh_python, "import yangsym.cli") & {"hashlib", "_hashlib"}


def test_commands_load_only_the_layers_they_use(fresh_python, tmp_path):
    assert not _loaded(fresh_python, "import yangsym.cli") & ENGINE

    def compute(obj, out):
        return (f"from yangsym.cli import main; main(['compute', '{obj}', '--k', '2', "
                f"'--n', '2', '--order', '3', '--cache-dir', {str(tmp_path)!r}, "
                f"'--out', {str(tmp_path / out)!r}])")

    # a miss builds and stores h; the next process finds it
    cold_h = _loaded(fresh_python, compute("h", "cold.json"))
    assert {"yangsym.symfun", "yangsym.serialize"} <= cold_h
    assert not _loaded(fresh_python, compute("h", "warm.json")) & ENGINE
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()

    cold_e = _loaded(fresh_python, compute("e", "e.json"))
    assert "yangsym.symfun" in cold_e
    assert not {"yangsym.suites", "yangsym.capelli"} & cold_e


def test_suites_import_loads_no_dataclasses(fresh_python):
    # `dataclasses` brings inspect, ast and tokenize into every verify process
    assert not _loaded(fresh_python, "import yangsym.suites") & {"dataclasses", "inspect"}
