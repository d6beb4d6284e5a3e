"""The mutation table of ``tests/mutants.py`` still fits the code: each
mutant's ``old`` text occurs exactly once in ``src/vesselsim``, in the file
it names, and each names killers that exist: every ``::`` part of a
killer's node id after its file is a ``class`` or ``def`` of that name
there, and a killing script is a file under ``tests/``.  The mutants
themselves run outside tier-1, as ``python tests/mutants.py``."""

import re
import shlex

import pytest

from mutants import MUTANTS, PACKAGE, ROOT, is_script


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once_in_the_package(mutant):
    counts = {
        path.name: path.read_text().count(mutant.old)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: count for name, count in counts.items() if count} == {mutant.file: 1}
    assert mutant.new != mutant.old
    for test in mutant.tests:
        if is_script(test):
            script = ROOT / shlex.split(test)[0]
            assert script.parent == ROOT / "tests" and script.is_file(), test
            continue
        path, *names = test.split("::")
        text = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {name}\b", text, re.MULTILINE), test
