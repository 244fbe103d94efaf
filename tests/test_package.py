import types

import rfladder


def test_all_is_every_public_name_the_package_binds():
    names = rfladder.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(rfladder, name) for name in names)
    bound = {
        name for name, value in vars(rfladder).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(names) == sorted(bound)
