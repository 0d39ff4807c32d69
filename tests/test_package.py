"""The package's public names are the union of its modules' ``__all__``."""

import importlib
import re
import types
from pathlib import Path

import liegroup_maps

# the package attribute ``integrate`` is the function, not the module
_MODULES = [importlib.import_module(f"liegroup_maps.{name}") for name in
            ("core", "scalars", "oracle", "so3", "se3", "integrate")]


def _listed():
    return {name for module in _MODULES for name in module.__all__}


def test_every_listed_name_is_a_package_attribute():
    missing = sorted(name for name in _listed()
                     if not hasattr(liegroup_maps, name))
    assert missing == []


def test_public_names_are_exactly_the_listed_ones():
    public = {name for name, value in vars(liegroup_maps).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == _listed()


def test_readme_surface_names_are_package_attributes():
    # every backticked identifier of the README's "The full surface:"
    # paragraph, so the listing cannot keep a name the package dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    start = readme.index("The full surface:")
    paragraph = readme[start:readme.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)
    assert len(names) >= 30
    assert [name for name in names if not hasattr(liegroup_maps, name)] == []
