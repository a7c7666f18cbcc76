import doctest
import importlib
import pathlib
import pkgutil

import cantorspec

PACKAGE_DIR = pathlib.Path(cantorspec.__file__).parent


def test_docstring_examples_run():
    attempted = 0
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"cantorspec.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 4
