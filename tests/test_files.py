"""Streamed reads, and artefact writes that no failed or concurrent write leaves in part."""

import functools
import json
import os
from pathlib import Path

import pytest

from tokalign.corpus import curate_files, read_curated
from tokalign.errors import ConfigError, DataError
from tokalign.files import atomic_write, read_lines
from tokalign.ibm1 import save_table, train_ibm1
from tokalign.tokenizers import TokenizerKind, TrainConfig, load_model, save_model, train

CORPUS = {"kamit": 5, "kamol": 3, "vodit": 4, "vodol": 2, "bura": 6}


def test_interleaved_writers_of_one_path_both_succeed(tmp_path, monkeypatch):
    # As two processes would: the second writes and replaces the file
    # between the first's write and its replace.
    path = tmp_path / "model.json"
    replace = os.replace
    pid = [100]
    monkeypatch.setattr(os, "getpid", lambda: pid[0])

    def second_writer_first(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        pid[0] = 101
        atomic_write(path, "second\n")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_writer_first)
    atomic_write(path, "first\n")
    assert path.read_text(encoding="utf-8") == "first\n"
    assert list(tmp_path.iterdir()) == [path]


class _FullDisk:
    """A text stream that takes `budget` characters, then fails as a full disk does."""

    def __init__(self, stream, budget):
        self._stream, self._budget = stream, budget

    def write(self, text):
        taken = self._stream.write(text[: self._budget])
        self._budget -= taken
        if taken < len(text):
            raise OSError("no space left on device")
        return taken

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stream.close()


def _curate(tmp_path, rows, out):
    lexicon = tmp_path / "lexicon"
    lexicon.mkdir(exist_ok=True)
    forms = [f"kam{suffix}" for suffix in ("it", "ol", "ar", "un")[:rows]]
    features, segmentations = lexicon / "features.tsv", lexicon / "segmentations.tsv"
    features.write_text("".join(f"kam\t{f}\tN;ACC\n" for f in forms), encoding="utf-8")
    segmentations.write_text("".join(f"{f}\tkam|{f[3:]}\n" for f in forms), encoding="utf-8")
    curate_files(features, segmentations, "xx", out)


@pytest.mark.parametrize("artefact", ["model", "table", "curated"])
def test_failed_save_leaves_the_earlier_file_whole(
    tmp_path, monkeypatch, em_pairs, artefact
):
    # The disk fills part way through the stream of the second save.
    if artefact == "model":
        save, load = save_model, load_model
        configs = (TrainConfig(TokenizerKind.BPE, n) for n in (12, 14))
        first, second = (train(CORPUS, config) for config in configs)
    elif artefact == "table":
        save, load = save_table, lambda path: json.loads(path.read_text(encoding="utf-8"))
        first, second = (train_ibm1(em_pairs, epochs=n) for n in (1, 2))
    else:
        # `write_rendered` writes a curated file a row at a time.
        save = functools.partial(_curate, tmp_path)
        load = lambda path: read_curated(read_lines(path))
        first, second = 2, 4
    path = tmp_path / "out" / f"{artefact}.json"
    save(first, path)
    before = path.read_bytes()
    open_ = Path.open

    def open_full(self, mode="r", *args, **kwargs):
        stream = open_(self, mode, *args, **kwargs)
        return _FullDisk(stream, len(before) // 2) if "w" in mode else stream

    with monkeypatch.context() as patch:
        patch.setattr(Path, "open", open_full)
        with pytest.raises(OSError, match="no space left"):
            save(second, path)
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]
    load(path)


def test_lines_are_yielded_as_the_file_is_read(tmp_path):
    # The bad byte lies past the decoder's first chunk of the file.
    path = tmp_path / "lines.txt"
    path.write_bytes(b"".join(b"line %d\n" % i for i in range(10_000)) + b"\xff\n")
    assert path.stat().st_size > 80_000
    lines = read_lines(path)
    assert next(lines) == "line 0\n"
    with pytest.raises(DataError, match="is not UTF-8 text"):
        for _ in lines:
            pass


def test_unreadable_file_is_a_config_error_when_read(tmp_path):
    lines = read_lines(tmp_path / "missing.txt")
    with pytest.raises(ConfigError, match="cannot read"):
        next(lines)


@pytest.mark.parametrize("load", [load_model])
def test_file_that_is_not_utf8_is_a_data_error(tmp_path, load):
    path = tmp_path / "artefact.json"
    path.write_bytes(b"\xff\n")
    with pytest.raises(DataError, match="is not valid JSON"):
        load(path)
