"""§8 scalability observation: compile time grows steeply with spec
complexity (state count / search-space size).

The paper notes "an exponential increase of compilation time when the
parser spec becomes more complex" and proposes divide-and-conquer as
future work.  This sweep compiles synthetic layered parsers of growing
state count and records the trend (it must be monotone-ish and the search
space strictly growing)."""

from __future__ import annotations

import pytest

from repro.core import compile_spec
from repro.harness.table3 import TOFINO

SIZES = [2, 3, 4, 6]

_RESULTS = []


def chain_spec(num_states: int):
    """A deterministic dispatch chain: state i keys on its own 4-bit field
    with two exact arms (continue / accept) plus a default reject."""
    from repro.ir import parse_spec

    lines = []
    fields = "; ".join(f"f{i} : 4" for i in range(num_states))
    lines.append(f"header h {{ {fields}; }}")
    lines.append(f"parser Scale{num_states} {{")
    for i in range(num_states):
        name = "start" if i == 0 else f"s{i}"
        succ = f"s{i + 1}" if i + 1 < num_states else "accept"
        lines.append(f"    state {name} {{")
        lines.append(f"        extract(h.f{i});")
        lines.append(f"        transition select(h.f{i}) {{")
        lines.append(f"            {5 + i} : {succ};")
        lines.append(f"            {10 + i} : accept;")
        lines.append("            default : reject;")
        lines.append("        }")
        lines.append("    }")
    lines.append("}")
    return parse_spec("\n".join(lines))


@pytest.mark.parametrize("num_states", SIZES)
def test_scalability_sweep(benchmark, num_states):
    spec = chain_spec(num_states)

    def run():
        return compile_spec(spec, TOFINO)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.ok, result.message
    _RESULTS.append(
        (num_states, result.stats.total_seconds,
         result.stats.search_space_bits, result.num_entries)
    )


def test_scalability_report(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_RESULTS) == len(SIZES)
    lines = ["Scalability sweep (synthetic layered parsers, Tofino profile)",
             "  states | compile (s) | search space (bits) | entries"]
    for states, seconds, bits, entries in _RESULTS:
        lines.append(
            f"  {states:6d} | {seconds:11.2f} | {bits:19d} | {entries}"
        )
    text = "\n".join(lines)
    report("scalability", text)
    print()
    print(text)
    # The search space grows monotonically with the chain length.
    bits = [b for _s, _t, b, _e in _RESULTS]
    assert bits == sorted(bits) and bits[-1] > bits[0]

