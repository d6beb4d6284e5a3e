"""The README's library tour runs: each python code block, in a fresh
namespace; and every backticked ``module.NAME`` of a vesselsim module names
an attribute that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import vesselsim

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


# Backticked dotted names whose first part is a vesselsim module but which
# name a path in a JSON report or scenario file, not a module attribute.
JSON_PATHS = {"bell.bounds", "scenario.system.total_volume"}
MODULES = {module.name for module in pkgutil.iter_modules(vesselsim.__path__)}
PROSE = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
# The dotted name at the start of each backticked span, calls cut off, with
# a leading "vesselsim." dropped.
NAMES = sorted(
    {
        match.removeprefix("vesselsim.")
        for span in re.findall(r"`([^`\n]+)`", PROSE)
        for match in re.findall(r"^\w+(?:\.\w+)+", span)
        if match.startswith("vesselsim.") or match.split(".")[0] in MODULES
    }
    - JSON_PATHS
)


def test_readme_names_module_attributes():
    assert {"commands.CSV_ROWS_PER_WRITE", "streams.CHUNK_SIZE", "__all__"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_backticked_module_name_resolves(name):
    head, *attributes = name.split(".")
    if head in MODULES and attributes == ["py"]:
        assert (Path(vesselsim.__file__).parent / name).is_file()
        return
    if head in MODULES:
        obj = importlib.import_module(f"vesselsim.{head}")
    else:
        obj, attributes = vesselsim, [head, *attributes]
    for attribute in attributes:
        obj = getattr(obj, attribute)
