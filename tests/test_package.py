import varcaputo
from varcaputo import expansion, order, pde, reference, special


def test_every_module_export_is_a_package_attribute():
    modules = (special, order, reference, expansion, pde)
    assert varcaputo.__all__ == [name for m in modules for name in m.__all__]
    for m in modules:
        for name in m.__all__:
            assert getattr(varcaputo, name) is getattr(m, name)
    assert {"PoleError", "DomainError", "MissingBoundError", "DegenerateCoefficientError",
            "SolverError"} <= set(varcaputo.__all__)
