"""The consistency-check suite over the whole corpus."""

from collections import Counter

import latnorm.checks
import latnorm.construction
import latnorm.extension
from latnorm.catalog import stemmed_diamond
from latnorm.checks import run_all_checks


def test_all_checks_pass_on_corpus(corpus_extension):
    for name, lat in corpus_extension.items():
        results = run_all_checks(lat)
        assert len(results) == 5
        for r in results:
            assert r.passed, (name, r.name, r.detail)


def test_checks_pass_on_atomistic(corpus_atomistic):
    for name, lat in corpus_atomistic.items():
        for r in run_all_checks(lat):
            assert r.passed, (name, r.name, r.detail)
        names = [r.name for r in run_all_checks(lat)]
        assert not any("extension" in n and "(on" in n for n in names)


def test_check_result_line_format(corpus_extension):
    results = run_all_checks(corpus_extension["stemmed_diamond"])
    for r in results:
        assert r.line().startswith("PASS")


def test_run_all_checks_builds_one_extension_family_and_s_family(monkeypatch):
    calls = Counter()

    def count(module, name, real=None, raising=True):
        real = real or getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted, raising=raising)

    for name in ("extend", "generated_family", "s_family"):
        count(latnorm.checks, name)
    count(latnorm.construction, "generated_family")  # the isomorphism check's own family
    # s_family gates the family it is given; a lift of its own would show up here
    count(latnorm.extension, "lift", real=latnorm.construction.lift, raising=False)
    count(latnorm.construction, "lift")
    results = run_all_checks(stemmed_diamond())
    assert all(r.passed for r in results)
    # the extension has 3 atoms: 8 lifts for the shared family, 8 for the isomorphism check's
    assert calls == {"extend": 1, "generated_family": 2, "s_family": 1, "lift": 16}
