"""Bounds of the synthetic language generator."""

import pytest

from tokalign.errors import ConfigError
from tokalign.synth import (
    NOUN_CLASSES,
    VERB_CLASSES,
    SynthConfig,
    build_language,
    main,
    stem_capacity,
)


def test_capacity_follows_the_class_inventories():
    # Nouns: two 360-stem classes.  Verbs: class D2 ("tv"/"iu") holds
    # 112 stems and is second in the cycle, so it runs out at 2*112+1.
    assert stem_capacity(NOUN_CLASSES) == 720
    assert stem_capacity(VERB_CLASSES) == 225


def test_stem_counts_up_to_capacity_build_and_past_it_raise():
    language = build_language(SynthConfig(noun_stems=720, verb_stems=225, sentences=5))
    stems = {stem for _form, stem, _suffix, _bundle in language.lexicon}
    assert len(stems) == 720 + 225
    with pytest.raises(ConfigError, match="capacity of 225"):
        SynthConfig(verb_stems=226)
    with pytest.raises(ConfigError, match="capacity of 720"):
        SynthConfig(noun_stems=721)


def test_command_line_rejects_stem_counts_past_capacity(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "syn"), "--verb-stems", "226"]) == 1
    assert "capacity of 225" in capsys.readouterr().err
    assert not (tmp_path / "syn").exists()
