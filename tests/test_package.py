"""The package's public names are the union of its modules' ``__all__``."""

import importlib
import types

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
