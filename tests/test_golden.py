"""Byte identity against the golden corpus in ``tests/golden/``.

Each case of ``tests/golden/cases.txt`` runs ``vouchsafe.cli.main`` in-process
in a fresh temporary copy of that directory, and its exit code, stdout, stderr
and the files it created must equal ``tests/golden/expected/NN.txt`` byte for
byte.  After an intended output change, rewrite them with
``tests/golden/regen.py`` and review the diff.
"""

import pytest

from golden import regen

CASES = regen.cases()


def test_every_case_has_one_expected_file():
    assert sorted(p.name for p in regen.EXPECTED.glob("*.txt")) == [
        regen.expected_path(i).name for i in range(len(CASES))
    ]


def test_input_builders_reproduce_the_committed_inputs():
    built = regen.input_files()
    assert sorted(built) == sorted(
        p.name for p in regen.GOLDEN.iterdir() if p.suffix in (".jsonl", ".jwt", ".json")
    )
    for name, data in built.items():
        assert data == (regen.GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: regen.expected_path(i).stem)
def test_case_output_is_unchanged(index, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = regen.run_case(CASES[index])
    assert got == regen.expected_path(index).read_text(encoding="utf-8")


def test_noise_file_changes_no_output_byte():
    """``noise.jsonl`` holds an unrelated bad-signature line and a garbage
    line; ``linked-noise.jsonl`` a vouch of the subject that never decodes
    and a JSON-quoted copy of a line already read; ``line-breaks.jsonl``
    garbage split by line-ending characters other than newline, and a copy
    of a line already read.  A case that also reads one after another
    bundle file expects what the case without it does."""
    for name in ("noise.jsonl", "linked-noise.jsonl", "line-breaks.jsonl"):
        noisy = [i for i, case in enumerate(CASES) if f".jsonl {name}" in case]
        assert noisy, name
        for i in noisy:
            plain = CASES.index(CASES[i].replace(f" {name}", ""))
            outputs = [regen.expected_path(j).read_text(encoding="utf-8").split("\n", 1)[1] for j in (plain, i)]
            assert outputs[0] == outputs[1]
