"""README's library example runs as written."""

import re
from pathlib import Path

from tokalign import cli
from tokalign.corpus import (
    curate,
    parse_feature_lexicon,
    parse_segmentation_lexicon,
    write_curated,
)
from tokalign.metrics import read_score_rows
from tokalign.synth import SynthConfig, build_language
from tokalign.tokenizers import (
    TokenizerKind,
    TrainConfig,
    save_model,
    train,
    word_frequencies,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    language = build_language(
        SynthConfig(noun_stems=20, verb_stems=20, sentences=200, words_per_sentence=6)
    )
    features, _ = parse_feature_lexicon(
        f"{stem}\t{form}\t{';'.join(bundle)}" for form, stem, _suffix, bundle in language.lexicon
    )
    segmentations, _ = parse_segmentation_lexicon(
        f"{form}\t{stem}|{suffix}" for form, stem, suffix, _bundle in language.lexicon
    )
    dataset, _ = curate(segmentations, features, language="syn")
    with (tmp_path / "curated.tsv").open("w", encoding="utf-8") as stream:
        write_curated(dataset, stream)
    freqs = dict(word_frequencies(language.sentences))
    save_model(train(freqs, TrainConfig(TokenizerKind.BPE, 400)), tmp_path / "bpe-400.json")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == len(namespace["rows"])
    # The rows are those `tokalign evaluate` writes from the same files.
    argv = ["evaluate", "--curated", "curated.tsv", "--model", "bpe-400.json",
            "--out", "scores.csv"]
    assert cli.main(argv) == 0
    with open("scores.csv", encoding="utf-8") as stream:
        assert namespace["rows"] == read_score_rows(stream)
