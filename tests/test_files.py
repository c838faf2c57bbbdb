"""Atomic artefact writes: a failed or concurrent write never leaves a part file."""

import os
from pathlib import Path

import pytest

from tokalign.errors import DataError
from tokalign.files import atomic_write
from tokalign.ibm1 import load_table, save_table, train_ibm1
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


@pytest.mark.parametrize("artefact", ["model", "table"])
def test_failed_save_leaves_the_earlier_file_whole(
    tmp_path, monkeypatch, em_pairs, artefact
):
    if artefact == "model":
        save, load = save_model, load_model
        configs = (TrainConfig(TokenizerKind.BPE, n) for n in (12, 14))
        first, second = (train(CORPUS, config) for config in configs)
    else:
        save, load = save_table, load_table
        first, second = (train_ibm1(em_pairs, epochs=n) for n in (1, 2))
    path = tmp_path / f"{artefact}.json"
    save(first, path)
    before = path.read_bytes()
    write_text = Path.write_text

    def write_half(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    with pytest.raises(OSError, match="no space left"):
        save(second, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    load(path)


@pytest.mark.parametrize("load", [load_model, load_table])
def test_file_that_is_not_utf8_is_a_data_error(tmp_path, load):
    path = tmp_path / "artefact.json"
    path.write_bytes(b"\xff\n")
    with pytest.raises(DataError, match="is not valid JSON"):
        load(path)
