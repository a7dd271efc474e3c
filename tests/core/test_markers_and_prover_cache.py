"""Appendix-A marker agreement and the prover's memos."""

import pytest

import repro.core.qbs as qbs_module
from repro.core.prover import Prover
from repro.core.qbs import QBS, QBSStatus
from repro.core.synthesizer import Synthesizer
from repro.corpus.registry import compile_fragment, fragment_by_id

from tests.core.test_synthesis_equivalence import FRAGMENTS


def test_markers_match_appendix_a():
    # Paper Appendix A: X translated, * failed, † rejected.
    assert QBSStatus.TRANSLATED.marker == "X"
    assert QBSStatus.FAILED.marker == "*"
    assert QBSStatus.REJECTED.marker == "†"
    assert len({status.marker for status in QBSStatus}) == len(QBSStatus)


def test_markers_agree_with_module_docstring():
    doc = qbs_module.__doc__
    assert "**rejected** (``†``)" in doc
    assert "**failed** (``*``)" in doc
    assert "**translated** (``X``)" in doc


def _synthesized(fragment_id):
    fragment = compile_fragment(fragment_by_id(fragment_id))
    synthesizer = Synthesizer(fragment)
    result = synthesizer.synthesize()
    assert result.succeeded
    return synthesizer, result


def test_prover_nf_cache_changes_nothing():
    synthesizer, result = _synthesized("w46")
    with_cache = Prover(synthesizer.vcset)
    without = Prover(synthesizer.vcset, nf_cache=False)
    assert with_cache.validate(result.assignment).proved
    assert without.validate(result.assignment).proved
    assert with_cache.nf_cache_hits > 0
    assert without.nf_cache_hits == 0


def test_prover_nf_cache_reused_across_validations():
    synthesizer, result = _synthesized("w46")
    prover = Prover(synthesizer.vcset)
    assert prover.validate(result.assignment).proved
    hits_after_first = prover.nf_cache_hits
    misses_after_first = prover.nf_cache_misses
    # The same assignment revalidates almost entirely from the memo:
    # identical VCs produce identical fact contexts.
    assert prover.validate(result.assignment).proved
    assert prover.nf_cache_hits > hits_after_first
    assert prover.nf_cache_misses == misses_after_first


def test_prover_rejects_bogus_assignment_with_cache():
    # The memo must not convert failures into successes: a wrong
    # candidate still fails under the cached prover.
    synthesizer, good = _synthesized("w40")
    other_synth, other = _synthesized("w46")
    prover = Prover(synthesizer.vcset)
    assert prover.validate(good.assignment).proved
    outcome = prover.validate(other.assignment)
    assert not outcome.proved


class RecordingProver(Prover):
    """A prover that keeps the normal form of every goal and hypothesis
    it normalises: each ``_normalize`` call not made from inside
    another, as ``(expression, normal form)``, per validation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.normal_forms = []
        self._depth = 0

    def _normalize(self, expr, facts, bools):
        self._depth += 1
        try:
            result = super()._normalize(expr, facts, bools)
        finally:
            self._depth -= 1
        if self._depth == 0:
            self.normal_forms.append((expr, result))
        return result

    def validate(self, assignment):
        start = len(self.normal_forms)
        proof = super().validate(assignment)
        return proof, self.normal_forms[start:]


@pytest.mark.parametrize("fragment_id,fragment", FRAGMENTS,
                         ids=[fid for fid, _ in FRAGMENTS])
def test_prover_memos_match_oracle_on_corpus(fragment_id, fragment,
                                             monkeypatch):
    """Every candidate a QBS run proves or rejects, re-proved memo-free.

    The run's prover keeps its memos (normal forms, rewrite passes,
    entailment) across all the candidates it sees;
    ``Prover(nf_cache=False)`` decides every question afresh.  Each must
    reach the same verdict with the same failures, in order, through
    the same normal form of every goal and hypothesis.
    """
    seen = []

    class RunProver(RecordingProver):
        def validate(self, assignment):
            proof, forms = super().validate(assignment)
            seen.append((self.vcset, assignment, proof, forms))
            return proof

    monkeypatch.setattr(qbs_module, "Prover", RunProver)
    result = QBS().run(fragment)
    if not seen:
        # No candidate survived bounded checking and SQL emission.
        assert result.status is QBSStatus.FAILED
        return
    oracle = RecordingProver(seen[0][0], nf_cache=False)
    for vcset, assignment, proof, forms in seen:
        assert vcset is oracle.vcset
        assert forms
        assert oracle.validate(assignment) == (proof, forms)
    assert oracle.nf_cache_hits == 0
    assert not oracle._nf_cache and not oracle._rewrite_memo
