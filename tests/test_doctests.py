import doctest
import importlib
import pkgutil

import ghw


def test_module_examples_pass():
    # The docstring examples of the package and of every module but
    # __main__, which would start the command line on import.
    modules = [ghw] + [importlib.import_module(info.name)
                       for info in pkgutil.iter_modules(ghw.__path__, "ghw.")
                       if info.name != "ghw.__main__"]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0
