"""The differential CLI corpus (tests/corpus.py): it builds, it covers every
command, mode, flag and format, each command reaches every exit code it can, and
its runner gives the same bytes twice on one tree."""

import argparse
import json

import corpus
from eframes import cli


def test_corpus_builds_and_covers_every_command_mode_flag_and_format(tmp_path):
    argvs = corpus.build(tmp_path)
    words = {word for argv in argvs for word in argv}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        assert name in words
        for action in parser._actions:
            assert not action.option_strings or set(action.option_strings) & words, name
            assert set(action.choices or ()) <= words, (name, action.choices)
    for argv in argvs:
        configs = [word for word in argv if word.endswith(".json") and word != "missing.json"]
        assert all((tmp_path / path).is_file() for path in configs), argv
    assert len(argvs) == len({json.dumps(argv) for argv in argvs})


def test_each_command_reaches_every_exit_code_it_can(tmp_path, monkeypatch):
    argvs = corpus.build(tmp_path)
    monkeypatch.chdir(tmp_path)
    reached = {command: set() for command in corpus.COMMANDS}
    for argv, (code, out, err) in zip(argvs, corpus.run_all(argvs)):
        assert code in (0, 1, 2), (argv, err)
        assert (code == 0) <= (err == "") and (code == 1) <= (out == ""), (argv, out, err)
        if argv and argv[0] in reached and "--help" not in argv:
            reached[argv[0]].add(code)
    assert reached == corpus.REACHABLE


def test_a_subset_runs_identically_twice_on_head(tmp_path):
    """Every 25th argv, each time in a fresh process: exit codes, stdout with the
    elapsed line masked, and stderr are the same bytes."""
    argvs = corpus.build(tmp_path)[::25]
    first = corpus.run_tree(corpus.ROOT / "src", tmp_path, argvs)
    second = corpus.run_tree(corpus.ROOT / "src", tmp_path, argvs)
    assert first == second and corpus.differences(argvs, first, second) == []
    assert any("elapsed: <masked>" in out for _, out, _ in first)
    assert {code for code, _, _ in first} == {0, 1, 2}


def test_a_difference_names_the_first_line_that_moved():
    argv = [["analyze", "x.json"]]
    def report(old, new):
        return corpus.differences(argv, [[0, old, ""]], [[0, new, ""]])
    assert report("a\nb\n", "a\nc\n") == ["analyze x.json: stdout line 2: 'b\\n' -> 'c\\n'"]
    assert report("a\nb\n", "a\nb\nc\n") == ["analyze x.json: stdout line 3: '' -> 'c\\n'"]
    assert report("a\nb\nc\n", "a\nb\n") == ["analyze x.json: stdout line 3: 'c\\n' -> ''"]
    assert report("a\n", "a") == ["analyze x.json: stdout line 1: 'a\\n' -> 'a'"]
    assert report("", "a\n") == ["analyze x.json: stdout line 1: '' -> 'a\\n'"]
    assert report("a\n", "a\n") == []
