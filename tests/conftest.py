"""Fixtures shared by the test modules."""

import sys
import types
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_corpus():
    """bench/corpus.py, executed from its text as a module of its own; the
    file is only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    module = types.ModuleType("bench_corpus_text")
    sys.modules[module.__name__] = module     # dataclasses look it up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module
