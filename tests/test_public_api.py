"""The package's public names: each module's __all__, re-exported once."""

import fuzznest
from fuzznest import errors, fuzzy_core, seq_codec, set_expr

MODULES = (errors, set_expr, fuzzy_core, seq_codec)


def test_all_is_the_modules_lists_in_order():
    names = fuzznest.__all__
    assert len(names) == len(set(names)) == 49
    assert names == ["__version__", *(n for m in MODULES for n in m.__all__)]


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fuzznest, name) is getattr(module, name), name
