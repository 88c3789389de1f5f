"""Equality-saturation normalization: e-graph mechanics, confluence
property tests over seeded R1–R5 mutation chains, and end-to-end
equivalence of compiled programs (ISSUE 10)."""

from __future__ import annotations

import random

import pytest

from repro.benchgen.suites import MUTATIONS, TABLE3_ROWS, Benchmark
from repro.core.compiler import compile_spec
from repro.core.normalize import prepare_spec
from repro.core.options import CompileOptions
from repro.core.skeleton import build_skeleton, entry_lower_bound
from repro.hw.device import tofino_profile
from repro.ir.eqsat import (
    EGraph,
    EqsatBudget,
    make_node,
    normalize_key,
    saturate_spec,
)
from repro.ir.spec import ACCEPT, REJECT, FieldKey, LookaheadKey, parse_spec
from repro.persist.fingerprint import options_fingerprint, spec_fingerprint

from ..conftest import assert_program_matches_spec, assert_specs_equivalent

# The R1–R5 symmetry rewrites (the +unroll/+merge mutations change loop
# structure, which is a refinement, not a symmetry).
R_MUTATIONS = [
    "+R1", "-R1", "+R2", "-R2", "+R3", "-R3", "+R4", "-R4", "+R5", "-R5",
]


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def test_normalize_key_fuses_adjacent_field_slices():
    key = (FieldKey("h.f", 7, 4), FieldKey("h.f", 3, 0))
    assert normalize_key(key) == (FieldKey("h.f", 7, 0),)


def test_normalize_key_fuses_adjacent_lookahead_windows():
    key = (LookaheadKey(0, 3), LookaheadKey(3, 5))
    assert normalize_key(key) == (LookaheadKey(0, 8),)


def test_normalize_key_keeps_non_adjacent_parts():
    key = (FieldKey("h.f", 7, 6), FieldKey("h.f", 3, 0))
    assert normalize_key(key) == key
    key = (FieldKey("h.f", 3, 0), FieldKey("h.f", 7, 4))  # reversed order
    assert normalize_key(key) == key


def test_make_node_drops_semantically_dead_field_key():
    node = make_node(
        ("h.f",), (FieldKey("h.f", 3, 0),), ((0, 0, ACCEPT),)
    )
    assert node.key == ()
    assert node.rules == ((0, 0, ACCEPT),)


def test_make_node_keeps_lookahead_key_even_when_unconditional():
    # Lookahead evaluation rejects short packets; dropping the key would
    # accept them.
    key = (LookaheadKey(0, 4),)
    node = make_node((), key, ((0, 0, ACCEPT),))
    assert node.key == key


def test_make_node_canonicalizes_rule_order_and_masks():
    # Same semantics written three ways -> one node.
    a = make_node((), (FieldKey("h.f", 3, 0),),
                  ((1, 15, 0), (3, 15, 0), (0, 0, ACCEPT)))
    b = make_node((), (FieldKey("h.f", 3, 0),),
                  ((3, 15, 0), (1, 15, 0), (0, 0, ACCEPT)))
    c = make_node((), (FieldKey("h.f", 3, 0),),
                  ((1, 13, 0), (0, 0, ACCEPT)))  # merged mask form
    assert a == b == c


# ---------------------------------------------------------------------------
# E-graph mechanics
# ---------------------------------------------------------------------------

CONGRUENT = """
header h { a : 4; b : 4; c : 4; }
parser Congruent {
    state start {
        extract(h.a);
        transition select(h.a) { 1 : left; 2 : right; default : reject; }
    }
    state left  { extract(h.b); transition select(h.b) { 5 : tail; default : accept; } }
    state right { extract(h.b); transition select(h.b) { 5 : tail; default : accept; } }
    state tail  { extract(h.c); transition accept; }
}
"""


def test_congruent_states_merge():
    graph = EGraph(parse_spec(CONGRUENT))
    cids = {graph.find(c) for c in range(4)}
    # left and right are identical up to naming -> one class.
    assert len(cids) == 3
    merged = [c for c in graph.class_ids() if len(graph.names_of(c)) == 2]
    assert len(merged) == 1
    assert sorted(graph.names_of(merged[0])) == ["left", "right"]


def test_extract_emits_checked_spec_with_canonical_names():
    spec = parse_spec(CONGRUENT)
    out, stats = saturate_spec(spec)
    assert out.start == "start"
    assert set(out.states) <= {"start"} | {f"q{i}" for i in range(4)}
    assert stats.classes == 3
    rng = random.Random(7)
    assert_specs_equivalent(spec, out, rng)


def test_saturation_budget_bounds_iterations():
    spec = TABLE3_ROWS[0].spec()
    _out, stats = saturate_spec(spec, EqsatBudget(max_iterations=1))
    assert stats.iterations == 1


def test_saturate_deterministic():
    b = Benchmark("Large tran key", "large_tran_key", ("+R3", "+R4"))
    fps = {spec_fingerprint(saturate_spec(b.spec())[0]) for _ in range(3)}
    assert len(fps) == 1


# ---------------------------------------------------------------------------
# Confluence: seeded R1–R5 chains converge per family (satellite 2)
# ---------------------------------------------------------------------------

BASES = [
    "parse_ethernet", "parse_icmp", "large_tran_key",
    "multi_key_same", "multi_key_diff", "pure_extraction",
]


def _mutate_chain(base: str, seed: int, length: int = 3):
    rng = random.Random(seed)
    spec = Benchmark("b", base).spec()
    applied = []
    for _ in range(length):
        name = rng.choice(R_MUTATIONS)
        try:
            mutated = MUTATIONS[name](spec)
        except Exception:
            continue
        spec = mutated
        applied.append(name)
    return spec, applied


@pytest.mark.parametrize("base", BASES)
def test_seeded_mutation_chains_confluent(base):
    reference, _ = saturate_spec(Benchmark("b", base).spec())
    ref_fp = spec_fingerprint(reference)
    for seed in range(6):
        mutated, applied = _mutate_chain(base, seed)
        canon, _ = saturate_spec(mutated)
        assert spec_fingerprint(canon) == ref_fp, (
            f"{base} chain {applied} (seed {seed}) did not converge"
        )


@pytest.mark.parametrize("row", TABLE3_ROWS, ids=lambda b: b.row_label)
def test_table3_saturated_specs_equivalent(row):
    spec = row.spec()
    out, _stats = saturate_spec(spec)
    rng = random.Random(0xE05A7)
    assert_specs_equivalent(spec, out, rng, samples=120)


def test_family_confluence_over_table3_variants():
    families = {}
    for row in TABLE3_ROWS:
        if "+unroll" in row.mutations or "+merge" in row.mutations:
            continue  # loop refinements, not symmetries
        out, _ = saturate_spec(row.spec())
        families.setdefault(row.name, set()).add(spec_fingerprint(out))
    for name, fps in families.items():
        assert len(fps) == 1, f"family {name} diverged: {len(fps)} specs"


# ---------------------------------------------------------------------------
# End-to-end: compiled program equivalent to the unmutated spec
# ---------------------------------------------------------------------------

def _compile_opts(eqsat: bool) -> CompileOptions:
    return CompileOptions(
        directed_seed_tests=False,
        total_max_seconds=60,
        max_extra_entries=2,
        eqsat=eqsat,
    )


@pytest.mark.parametrize(
    "name,base,mutations",
    [
        ("Parse Ethernet", "parse_ethernet", ("+R1", "+R2")),
        ("Parse icmp", "parse_icmp", ("+R5",)),
    ],
)
def test_compiled_program_matches_unmutated_spec(name, base, mutations):
    mutated = Benchmark(name, base, mutations).spec()
    pristine = Benchmark(name, base).spec()
    device = tofino_profile(key_limit=8)
    result = compile_spec(mutated, device, _compile_opts(True))
    assert result.ok, result.message
    rng = random.Random(0xBEEF)
    assert_program_matches_spec(pristine, result.program, rng, samples=150)


def test_eqsat_answers_match_baseline():
    b = Benchmark("Multi-keys (diff pkt fields)", "multi_key_diff", ("+R5",))
    device = tofino_profile(key_limit=4)
    off = compile_spec(b.spec(), device, _compile_opts(False))
    on = compile_spec(b.spec(), device, _compile_opts(True))
    assert off.ok and on.ok
    assert off.program.num_entries == on.program.num_entries


# ---------------------------------------------------------------------------
# Candidate-space reduction and fingerprints
# ---------------------------------------------------------------------------

def test_candidate_space_shrinks_on_mutated_row():
    b = Benchmark("Large tran key", "large_tran_key", ("+R3", "+R4"))
    device = tofino_profile(key_limit=8)
    products = {}
    for eq in (False, True):
        opts = _compile_opts(eq)
        prepared, _plan = prepare_spec(
            b.spec(), pipelined=True, minimize_widths=False,
            fix_varbits=False, eqsat=eq,
        )
        sk = build_skeleton(
            prepared, device, opts,
            num_entries=entry_lower_bound(prepared, device),
        )
        products[eq] = sk.candidate_space()["product"]
    assert products[True] < products[False]


def test_eqsat_flag_is_semantic_in_fingerprints():
    off = CompileOptions(eqsat=False)
    on = CompileOptions(eqsat=True)
    assert options_fingerprint(off) != options_fingerprint(on)
