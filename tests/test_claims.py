"""Verifier behaviour: verdict structure, determinism, refutation, replay."""

import json
import pathlib
from dataclasses import replace

import pytest

from palindromics import (
    ClaimVerdict,
    claims,
    manifest,
    replay_return_witness,
    run_all,
    run_claim,
    run_return_family_claim,
)
from palindromics.claims import (
    CLAIMS,
    EXCEPTIONAL_PAL_SETS,
    MINPAL_EXPECTATIONS,
    RETURN_CLAIMS,
    scan_min_palindromes,
    ten_palindrome_classes,
)

from conftest import all_words, naive_pal_set

AB = "ab"


def test_manifest_covers_registry():
    entries = manifest()
    assert [e["claim_id"] for e in entries] == sorted(CLAIMS)
    assert all(e["summary"] for e in entries)


def test_unknown_claim():
    with pytest.raises(KeyError, match="unknown claim"):
        run_claim("nope")


def test_refuted_requires_witnesses():
    with pytest.raises(ValueError):
        ClaimVerdict("x", "refuted", {}, [])
    with pytest.raises(ValueError):
        ClaimVerdict("x", "maybe", {}, [])


def test_determinism():
    for cid in ("rich9", "exact9", "minpal-t9", "returns-baaab"):
        a, b = run_claim(cid), run_claim(cid)
        assert a == b  # stats excluded from comparison
        assert a.witnesses == b.witnesses


def test_min_palindrome_scan_matches_oracle():
    best, argmin, scanned = scan_min_palindromes(AB, 9)
    counts = {w: len(naive_pal_set(w)) for w in all_words("ab", 9)}
    assert scanned == len(counts) == 512
    assert best == min(counts.values())
    assert argmin == [w for w, c in counts.items() if c == best]  # lexicographic


@pytest.mark.parametrize("cid", sorted(MINPAL_EXPECTATIONS))
def test_minpal_claims_refute_a_wrong_expectation(cid, monkeypatch):
    summary, alphabet, n, expected = MINPAL_EXPECTATIONS[cid]
    assert run_claim(cid).status == "verified"
    monkeypatch.setitem(
        MINPAL_EXPECTATIONS, cid, (summary, alphabet, n, expected + 1)
    )
    v = run_claim(cid)
    assert v.status == "refuted"
    [w] = v.witnesses
    assert (w["min_palindromes"], w["expected"]) == (expected, expected + 1)
    assert w["argmin"]
    assert all(len(naive_pal_set(s)) == expected for s in w["argmin"])


def test_verdicts_match_the_benchmark_record():
    # perfbench/record.json holds every verdict minus stats as recorded from
    # the library; the registry must reproduce it exactly, and run_claim must
    # time each claim.
    record = json.loads(
        (pathlib.Path(__file__).parents[1] / "perfbench" / "record.json").read_text()
    )["verify-suite"]
    verdicts = run_all()
    assert [v.claim_id for v in verdicts] == sorted(record)
    for v in verdicts:
        assert isinstance(v.stats["elapsed_s"], float), v.claim_id
        got = v.to_record()
        del got["stats"]
        assert json.loads(json.dumps(got)) == record[v.claim_id], v.claim_id


def test_ten_pal_classes_match_frozen_fixture():
    fixture = json.loads(
        (pathlib.Path(__file__).parent / "data" / "ten_pal_classes.json").read_text()
    )
    assert ten_palindrome_classes() == fixture


def test_exceptional_sets_are_palindromic_and_sized():
    for s in EXCEPTIONAL_PAL_SETS:
        assert len(s) == 12
        assert all(p == p[::-1] for p in s)
    missing_aa = [s for s in EXCEPTIONAL_PAL_SETS if "aa" not in s]
    missing_bb = [s for s in EXCEPTIONAL_PAL_SETS if "bb" not in s]
    assert len(missing_aa) == 2 and len(missing_bb) == 2


class TestReturnClaims:
    def test_all_four_verify_at_default_bound(self):
        for cid, claim in RETURN_CLAIMS.items():
            v = run_return_family_claim(claim)
            assert v.status == "verified-up-to-bound", cid
            assert v.bound["max_len"] == 36
            assert v.stats["leaves"] > 0  # the bound, not the constraints, ended it
            assert v.stats["pruned_budget"] > 0

    def test_budget_relaxation_refutes_with_replayable_witness(self):
        claim = RETURN_CLAIMS["returns-baaab"]
        weakened = replace(
            claim, constraints=replace(claim.constraints, pal_budget=14)
        )
        v = run_return_family_claim(weakened)
        assert v.status == "refuted"
        for w in v.witnesses:
            assert replay_return_witness(weakened, w)
            # The same witness does not satisfy the original constraints.
            assert not claim.constraints.satisfies(w["host"])

    def test_replay_rejects_tampered_witness(self):
        claim = RETURN_CLAIMS["returns-baaab"]
        weakened = replace(
            claim, constraints=replace(claim.constraints, pal_budget=14)
        )
        v = run_return_family_claim(weakened)
        witness = dict(v.witnesses[0])
        witness["return"] = "baaabbabaaab"  # a family member, not a violation
        assert not replay_return_witness(weakened, witness)

    def test_replay_rejects_host_without_required_factors(self):
        # The return is a complete first return to baaab outside every
        # family, and alone it meets the weakened budget; but a host must
        # also hold the claim's required factors, and it holds none.
        claim = RETURN_CLAIMS["returns-baaab"]
        weakened = replace(
            claim, constraints=replace(claim.constraints, pal_budget=14)
        )
        ret = "baaababbaababbabaaab"
        assert not any(r in ret for r in claim.constraints.required_factors)
        assert not replay_return_witness(weakened, {"host": ret, "return": ret})

    def test_shrinking_bound_keeps_verdict(self):
        claim = replace(RETURN_CLAIMS["returns-ababa"], max_len=24)
        v = run_return_family_claim(claim)
        assert v.status == "verified-up-to-bound"
        assert v.bound["max_len"] == 24


def _binary_floor_of_8(mp):
    scan = claims.scan_min_palindromes
    mp.setattr(
        claims, "scan_min_palindromes", lambda *a, **k: (8, *scan(*a, **k)[1:])
    )


def _ten_classes(change):
    def perturb(mp):
        classes = claims.ten_palindrome_classes()
        changed = {**classes, **change(classes)}
        mp.setattr(claims, "ten_palindrome_classes", lambda: changed)

    return perturb


# One perturbation of each one-off claim's stated data, with the check it
# must fail.
REFUTATIONS = [
    pytest.param("rich9", _binary_floor_of_8, "min_palindromes", id="rich9"),
    pytest.param("min4", _binary_floor_of_8, "binary_floor_at_12", id="min4"),
    pytest.param(
        "exact9",
        lambda mp: mp.setattr(claims, "PERIOD6_PAL_SET", frozenset()),
        "squares_with_other_pal_sets",
        id="exact9",
    ),
    pytest.param(
        "exact10", _ten_classes(lambda c: {"tailed": []}), "exactly_ten",
        id="exact10",
    ),
    pytest.param(
        "extend11",
        _ten_classes(lambda c: {"tailed": c["tailed"] + c["square"][:1]}),
        "palindromes",
        id="extend11",
    ),
    pytest.param(
        "need-squares",
        lambda mp: mp.setattr(claims, "EXCEPTIONAL_WITNESS", "a" * 12),
        "witness_pal_set",
        id="need-squares",
    ),
    pytest.param(
        "maxpal-bounds",
        lambda mp: mp.setattr(
            claims, "MAXPAL5_PAL_SET", claims.MAXPAL5_PAL_SET - {"bbabb"}
        ),
        "maxpal5_pal_set",
        id="maxpal-bounds",
    ),
    pytest.param(
        "closed13",
        lambda mp: mp.setattr(
            claims, "CLOSED13_PAL_SET", claims.CLOSED13_PAL_SET | {"bbb"}
        ),
        "terms_with_other_pal_sets",
        id="closed13",
    ),
    pytest.param(
        "stream-pal-counts",
        lambda mp: mp.setitem(
            claims.STREAM_EXPECTATIONS, "fib-bc", (5, 2, frozenset({"", "bb"}))
        ),
        "fib-bc pal_set",
        id="stream-pal-counts",
    ),
    pytest.param(
        "closure-checks",
        lambda mp: mp.setitem(claims.CLOSURE_EXPECTATIONS, "fib-bc", (2, None)),
        "fib-bc missing",
        id="closure-checks",
    ),
]


@pytest.mark.parametrize("cid, perturb, check", REFUTATIONS)
def test_one_off_claims_refute_perturbed_data(cid, perturb, check, monkeypatch):
    assert run_claim(cid).ok
    perturb(monkeypatch)
    v = run_claim(cid)
    assert v.status == "refuted"
    assert any(check in w for w in v.witnesses), v.witnesses
    json.dumps(v.to_record())
