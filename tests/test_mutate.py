"""The mutants of tests/mutate.py still apply to the current source."""

import mutate


def test_every_mutant_text_occurs_once():
    # a mutant whose old text moved is stale; the slow mutation run would
    # only report it after copying the tree
    stale = [
        m.name for m in mutate.MUTANTS
        if (mutate.ROOT / "src" / "robinaudit" / m.file).read_text().count(m.old) != 1
    ]
    assert stale == []
