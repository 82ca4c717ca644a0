"""Golden-file diagnostics corpus.

Every stable code in the registry (repro/analysis/diagnostics.py) is
triggered by at least one ``corpus/*.graql`` script; the matching
``.expected`` file pins the exact codes and ``line:col`` positions the
analyzer reports.  Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_corpus.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import CODES

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.graql"))

#: codes that cannot be provoked from script text alone; their tests
#: live in test_verifier.py (corrupted IR)
NON_SCRIPT_CODES = {"GQL030"}


def _render(result) -> str:
    return "".join(f"{d.code} {d.location}\n" for d in result.diagnostics)


class TestGoldenCorpus:
    def test_corpus_is_nonempty(self):
        assert len(CORPUS) >= len(CODES) - len(NON_SCRIPT_CODES)

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_golden(self, path, corpus_db):
        got = _render(corpus_db.analyze(path.read_text()))
        expected = path.with_suffix(".expected")
        if os.environ.get("REGEN_GOLDEN"):
            expected.write_text(got)
        assert expected.exists(), (
            f"missing golden file {expected.name}; run with REGEN_GOLDEN=1"
        )
        assert got == expected.read_text()

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_primary_code_matches_filename(self, path, corpus_db):
        """``gql013_*.graql`` must actually report GQL013."""
        want = path.stem.split("_")[0].upper()
        codes = {d.code for d in corpus_db.analyze(path.read_text()).diagnostics}
        assert want in codes, f"{path.name}: expected {want}, got {codes}"

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_every_diagnostic_is_positioned(self, path, corpus_db):
        for d in corpus_db.analyze(path.read_text()).diagnostics:
            assert d.span is not None, f"{path.name}: {d!r} has no position"
            assert d.span.line >= 1 and d.span.column >= 1

    def test_every_code_covered(self, corpus_db):
        seen = set(NON_SCRIPT_CODES)
        for path in CORPUS:
            seen |= {
                d.code for d in corpus_db.analyze(path.read_text()).diagnostics
            }
        missing = set(CODES) - seen
        assert not missing, f"codes never exercised by the corpus: {missing}"
        unregistered = seen - set(CODES)
        assert not unregistered
