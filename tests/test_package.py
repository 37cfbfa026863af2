import ptsl
from ptsl import bloch, dynamics, edge, lattice, numerics, transfer

MODULES = (bloch, dynamics, edge, lattice, numerics, transfer)


def test_package_reexports_each_module_api():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ptsl, name) is getattr(module, name), (module.__name__, name)


def test_package_all_is_union_of_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(ptsl.__all__) == len(set(ptsl.__all__))
    assert set(ptsl.__all__) == {"__version__", *names}
