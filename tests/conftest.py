import sys

import pytest

from rctm import core

# Stands in for the C compiler: writes a partial output file, then fails.
# Like core._CC it ends with "-o"; the build appends the output path.
FAILING_CC = (sys.executable, "-c",
              "import sys; open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'partial');"
              " sys.exit(1)", "-o")


@pytest.fixture(params=["c", "python"])
def kernel(request, monkeypatch):
    """Run the test on the compiled orbit loop and on the Python fallback.

    The fallback is forced by a compile command that fails: a new command
    hashes to a library name that is not yet built, so a build is attempted.
    """
    core._kernel.cache_clear()
    if request.param == "python":
        monkeypatch.setattr(core, "_CC", FAILING_CC)
        assert core.KERNEL == "python"
    elif core.KERNEL != "c":
        pytest.skip("the orbit kernel cannot be built here (no C compiler?)")
    yield request.param
    core._kernel.cache_clear()
