"""The package's public surface: __version__ and its modules' __all__."""

import kernelshot
from kernelshot import bounds, classifier, distributions, errors, geometry, ingest, kernels

MODULES = (errors, kernels, distributions, geometry, bounds, classifier, ingest)


def test_package_exports_exactly_the_module_lists():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert len(kernelshot.__all__) == len(set(kernelshot.__all__))
    assert set(kernelshot.__all__) == expected


def test_every_exported_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kernelshot, name) is getattr(module, name)
