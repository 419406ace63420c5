"""Every command of the golden corpus keeps its exit code, its stdout
digest and the digests of the files it writes (see `regen.py`)."""

import json

import regen


def test_golden_corpus(tmp_path):
    corpus = json.loads(regen.CORPUS.read_text())
    got = regen.replay(corpus, tmp_path)
    moved = [" ".join(want["argv"]) for want, have in zip(corpus["commands"], got)
             if want != have]
    assert not moved, f"{len(moved)} commands changed, first: {moved[:5]}"


def test_corpus_matches_its_generator():
    """The corpus lists exactly the commands and input files that
    `regen.py` generates, in order, so an edit to the generator without a
    regeneration fails here.  No command runs."""
    corpus = json.loads(regen.CORPUS.read_text())
    inputs, argvs = regen.plan()
    assert [entry["argv"] for entry in corpus["commands"]] == argvs
    assert corpus["inputs"] == inputs
