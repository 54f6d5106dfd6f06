"""The mutant list of tests/mutants.py follows the code it edits."""

import mutants


def test_every_mutant_edits_exactly_one_place():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / m.file).read_text()
        assert text.count(m.old) == 1, f"{m.name}: old text found {text.count(m.old)} times"
        assert m.new != m.old, m.name
