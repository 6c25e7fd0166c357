"""Acceptance criteria: every check is exact, tolerance zero throughout.

Each test prints one `[criterion N] PASS/FAIL` line (visible under
pytest -s); the exhaustive sweeps are seeded and deterministic.
"""

import time
from random import Random

import pytest

from circwords import (
    build_graph,
    count_occurrences,
    cyclomatic_number,
    enumerate_words,
    grandsart_report,
    is_spanning_tree,
    occurrence_positions,
    occurrence_vector,
    marginalization_check,
    project_to_square,
    span_dimension,
    spanning_set_family,
    verify_cks_basis,
    verify_kirchhoff,
    verify_spanning_set,
    winding_number_graph,
)
from circwords.span import express_in_span
from circwords.words import random_word
from conftest import cw, u

TRIALS = 10**4
MAX_RANDOM_LEN = 64


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """One pass over all 131,070 binary words of length 1..16."""
    t0 = time.monotonic()
    checked = 0
    inconsistent = 0
    bad_epsilon_sums = 0
    broken_projections = 0
    for n in range(1, 17):
        for w in enumerate_words(2, n):
            checked += 1
            try:
                if project_to_square(w).epsilon_sum % 4:
                    bad_epsilon_sums += 1
                if not grandsart_report(w).consistent:
                    inconsistent += 1
            except Exception:
                broken_projections += 1
    return {
        "checked": checked,
        "inconsistent": inconsistent,
        "bad_epsilon_sums": bad_epsilon_sums,
        "broken_projections": broken_projections,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_1_proposition_exhaustive(exhaustive_sweep):
    s = exhaustive_sweep
    ok = (
        s["checked"] == 131070
        and s["inconsistent"] == 0
        and s["broken_projections"] == 0
        and s["elapsed"] < 30.0
    )
    _verdict(
        1,
        ok,
        f"{s['checked']} words of length 1..16, {s['inconsistent']} violations, "
        f"{s['elapsed']:.1f}s",
    )


def test_criterion_2_paper_examples():
    checks = [
        count_occurrences(cw("00101"), u("010")) == 2,
        count_occurrences(cw("0001"), u("010")) == 1,
        occurrence_positions(cw("0001"), u("010")) == (2,),
        grandsart_report(cw("010011")).k_graph == 1,
        grandsart_report(cw("101100")).k_graph == -1,
    ]
    _verdict(2, all(checks), "counts 2 and 1 (at index 2), k = +1 and -1")


def test_criterion_3_kirchhoff_exhaustive():
    violations = 0
    identity_failures = 0
    checked = 0
    for n in range(1, 15):
        for w in enumerate_words(2, n):
            checked += 1
            for m in (1, 2, 3):
                if not verify_kirchhoff(w, m).ok:
                    violations += 1
            ov4 = occurrence_vector(w, 4)
            if ov4[u("0001")] != ov4[u("1000")] or ov4[u("0111")] != ov4[u("1110")]:
                identity_failures += 1
    ok = checked == 32766 and violations == 0 and identity_failures == 0
    _verdict(
        3,
        ok,
        f"{checked} words of length 1..14, n in {{1,2,3}}: {violations} residual "
        f"violations, {identity_failures} prefix/suffix identity failures",
    )


def test_criterion_4_square_graph_structure(exhaustive_sweep):
    s = exhaustive_sweep
    ok = s["bad_epsilon_sums"] == 0 and s["broken_projections"] == 0
    _verdict(
        4,
        ok,
        f"epsilon sums all = 0 mod 4 over {s['checked']} words, "
        f"{s['broken_projections']} broken projections",
    )


def test_criterion_5_dimension_formula():
    cases = [(2, 2, 3), (2, 3, 5), (2, 4, 9), (3, 2, 7)]
    details = []
    ok = True
    for d, l, expected in cases:
        t0 = time.monotonic()
        report = span_dimension(d, l)
        elapsed = time.monotonic() - t0
        good = (
            report.rank == expected == report.predicted
            and report.saturated
            and elapsed < 60.0
        )
        if (d, l) == (2, 4):
            good = good and report.relations == 7
        ok = ok and good
        details.append(f"({d},{l})->{report.rank} in {elapsed:.1f}s")
    _verdict(5, ok, "saturated ranks " + ", ".join(details))


def test_criterion_6_spanning_set():
    g = build_graph(2, 3)
    tree = [u(s) for s in ("1000", "1001", "1010", "1011", "1100", "1101", "1110")]
    checks = [
        verify_spanning_set(10),
        is_spanning_tree(g, tree),
        cyclomatic_number(g) == 9 == 2**4 - 2**3 + 1,
    ]
    _verdict(6, all(checks), "9 functions independent and spanning, 7-edge tree, "
                             "cyclomatic number 9")


def test_criterion_7_cks_basis_and_express():
    ok = verify_cks_basis(2, 3, 8) and verify_cks_basis(2, 4, 10)
    family = spanning_set_family(4)
    targets = [f for f in build_graph(2, 3).edges if f[0] == 0 and f != u("0000")]
    solutions = {t: express_in_span(t, family, 10) for t in targets}
    rng = Random(20260809)
    mismatches = 0
    for _ in range(1000):
        # held out: the solution comes from the certificate words of lengths
        # 1..7, validation uses 11..32
        w = random_word(rng, rng.randint(11, 32))
        counts = occurrence_vector(w, 4)
        for t, coeffs in solutions.items():
            combined = sum(c * counts[f] for c, f in zip(coeffs, family.factors))
            if combined != counts[t]:
                mismatches += 1
    ok = ok and mismatches == 0
    _verdict(
        7,
        ok,
        f"CKS bases for (2,3) and (2,4); {len(targets)} expressed functionals "
        f"exact on 1000 held-out words ({mismatches} mismatches)",
    )


def test_criterion_8a_rotation_invariance():
    rng = Random(81)
    bad = 0
    for _ in range(TRIALS):
        w = random_word(rng, rng.randint(1, MAX_RANDOM_LEN))
        shifted = w.rotate(rng.randrange(w.n))
        for l in (1, 2, 3, 4):
            if occurrence_vector(w, l).counts != occurrence_vector(shifted, l).counts:
                bad += 1
        if winding_number_graph(w) != winding_number_graph(shifted):
            bad += 1
    _verdict(8, bad == 0, f"rotation invariance of counts and k, {TRIALS} trials")


def test_criterion_8b_mirror_antisymmetry():
    rng = Random(82)
    bad = sum(
        1
        for _ in range(TRIALS)
        if winding_number_graph(w := random_word(rng, rng.randint(1, MAX_RANDOM_LEN)))
        != -winding_number_graph(w.reverse())
    )
    _verdict(8, bad == 0, f"k(reverse W) = -k(W), {TRIALS} trials")


def test_criterion_8c_complement_antisymmetry():
    rng = Random(83)
    bad = sum(
        1
        for _ in range(TRIALS)
        if winding_number_graph(w := random_word(rng, rng.randint(1, MAX_RANDOM_LEN)))
        != -winding_number_graph(w.complement())
    )
    _verdict(8, bad == 0, f"k(complement W) = -k(W), {TRIALS} trials")


def test_criterion_8d_marginalization():
    rng = Random(84)
    bad = 0
    for _ in range(TRIALS):
        w = random_word(rng, rng.randint(1, MAX_RANDOM_LEN))
        if not all(marginalization_check(w, l) for l in (2, 3, 4)):
            bad += 1
    _verdict(8, bad == 0, f"marginalization for l <= 4, {TRIALS} trials")
