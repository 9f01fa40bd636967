"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import pytest

from alblab import integrals
from alblab.acceptance import ALL_CRITERIA, run_acceptance


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=lambda fn: fn.__name__.replace("criterion_", ""))
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_quick_suite_is_green():
    results = run_acceptance("quick")
    for r in results:
        print(r.line())
    assert all(r.passed for r in results)


def test_corrupted_tolerance_reports_failures(monkeypatch):
    # a tolerance of 1 degrades the transport accuracy; the suite must report
    # quantified nonzero failure counts instead of raising
    from alblab.acceptance import criterion_shuffle_suite
    monkeypatch.setattr(integrals, "ABS_TOL", 1.0)
    result = criterion_shuffle_suite(n_paths=4)
    assert not result.passed
    assert result.failures > 0
    assert result.max_error > result.tolerance


def test_mhs_criterion_reads_the_computed_generators(monkeypatch):
    # an extra (1,3) entry in the loop about 0 puts a wrong Hodge type into log M0
    import alblab.albanese as albanese
    from alblab.acceptance import criterion_mhs_morphism
    true_action = albanese.monodromy_action

    def shifted(word):
        g = true_action(word)
        if word == "0":
            g[0][2] += 1
        return g

    monkeypatch.setattr(albanese, "monodromy_action", shifted)
    result = criterion_mhs_morphism()
    assert not result.passed and result.failures == 1


def test_failed_generator_is_counted_not_raised(monkeypatch):
    import alblab.acceptance as acceptance
    true_action = acceptance.monodromy_action

    def failing(word):
        if word == "0":
            raise RuntimeError("transport failed")
        return true_action(word)

    monkeypatch.setattr(acceptance, "monodromy_action", failing)
    result = acceptance.criterion_monodromy_integrality()
    # every check is still counted: both generators and each random word
    assert not result.passed and result.checks == 2 + acceptance.MONODROMY_WORDS
