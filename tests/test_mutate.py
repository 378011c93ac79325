"""The mutants of tests/mutate.py still apply to the current source."""

import builtins
import keyword
import re

import mutate


def test_every_mutant_text_occurs_once():
    # a mutant whose old text moved is stale; the slow mutation run would
    # only report it after copying the tree
    stale = [
        m.name for m in mutate.MUTANTS
        if (mutate.ROOT / "src" / "robinaudit" / m.file).read_text().count(m.old) != 1
    ]
    assert stale == []


def test_every_mutant_test_id_resolves():
    # a renamed test would leave its mutant with nothing to run; each part
    # of an id after the file, less any parameters, must be defined there
    def defined(text, name):
        name = re.escape(name.split("[")[0])
        return re.search(rf"^\s*(def|class) {name}\b", text, re.M) is not None

    missing = []
    for m in mutate.MUTANTS:
        for test_id in m.tests:
            path, *names = test_id.split("::")
            path = mutate.ROOT / path
            if not (path.is_file()
                    and all(defined(path.read_text(), n) for n in names)):
                missing.append((m.name, test_id))
    assert missing == []


def test_every_name_a_mutant_adds_is_defined():
    # a mutant that names a deleted function is caught by its NameError,
    # not by the behaviour it targets; each identifier the new text adds,
    # outside plain string literals and less a loop name it binds itself,
    # must be a builtin or occur elsewhere in the mutated file
    ident = re.compile(r"[A-Za-z_]\w*")
    literal = re.compile(r"(?<![A-Za-z_])(\"[^\"]*\"|'[^']*')")
    unknown = []
    for m in mutate.MUTANTS:
        rest = (mutate.ROOT / "src" / "robinaudit" / m.file).read_text()
        rest = rest.replace(m.old, "", 1)
        added = (set(ident.findall(literal.sub("", m.new)))
                 - set(ident.findall(m.old))
                 - set(re.findall(r"\bfor (\w+) in\b", m.new)))
        for name in added:
            if not (keyword.iskeyword(name) or hasattr(builtins, name)
                    or re.search(rf"\b{name}\b", rest)):
                unknown.append((m.name, name))
    assert unknown == []
