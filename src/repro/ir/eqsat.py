"""Equality saturation over the parser-spec IR.

``core/normalize.py``'s greedy canonicalization applies each cleanup
rewrite destructively and keeps whatever it reaches, so the spec the
skeleton enumerates — and with it the candidate space the encoder
bit-blasts — still depends on how the input was *written* whenever the
greedy pass cannot see through a rewrite composition (a mask-bit split
the adjacent-merge rule cannot undo, a key chain whose collapse only
becomes profitable after a state merge, ...).  This module removes that
dependence the way "Scaling Program Synthesis Based Technology Mapping
with Equality Saturation" (PAPERS.md) does for technology mapping:

* an **e-graph** whose e-classes start as the spec's states; each class
  holds hash-consed e-nodes ``(extracts, key, rules)`` with rule
  destinations referring to e-classes, so congruent states (equal up to
  destination equivalence) merge via a worklist-based rebuild;
* **normal forms** applied at node construction — adjacent key parts of
  one field (and adjacent lookahead windows) fuse, and for small key
  widths the rule list is rebuilt from the state's *semantic* transition
  function (value -> destination class), which subsumes the
  R1/R2/R3 entry rewrites of Figure 21 in both directions;
* **non-destructive composition rewrites** — the -R5 extraction-boundary
  merge and the -R4 key-chain collapse add the merged node to the
  existing class instead of replacing states, so every intermediate
  shape stays available;
* a bounded, deterministic **saturation driver** (node / iteration /
  optional wall-clock budgets; classes and nodes are always visited in
  id / insertion order so compile keys stay stable run to run);
* a cost-guided **extractor** that picks one representative node per
  reachable class — fewest states first, then fewest entries, then the
  widest merged keys — and emits a canonically renamed spec whose shape
  depends only on the input's semantics.

Soundness notes (the full argument is docs/internals.md §17):

* Rule-list canonicalization rebuilds the exact first-match semantic
  function over an enumerable key space and re-covers each destination's
  value set exactly (``hw.tcam.minimal_cover_exact``), so match order
  between destinations stops mattering.  Key evaluation is untouched.
* A key never collapses to unconditional while it contains a lookahead
  part: lookahead evaluation can reject short packets, so dropping it
  would change semantics even when every value maps to one destination.
* The -R4 collapse is skipped when the parent has a trailing default and
  a child either lacks a trailing catch-all (the merged default would
  swallow values the child originally rejected) or keys on lookahead
  (the merge would evaluate the child's window on packets the parent
  default used to divert).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..obs import get_tracer
from .rewrites import _rule_from_folded
from .spec import (
    ACCEPT,
    REJECT,
    FieldKey,
    KeyPart,
    LookaheadKey,
    ParserSpec,
    Rule,
    SpecState,
    _check_spec,
)

# A rule destination inside the e-graph: an e-class id or a sentinel.
Dest = Union[int, str]
# One folded rule: (value, mask, dest) over the node's whole key width.
FoldedRule = Tuple[int, int, Dest]

# Rule lists over keys at most this wide are rebuilt from the exact
# value -> destination map (and -R4 merges are capped at this width so
# merged nodes stay exactly canonicalizable).
EXACT_CANON_MAX_WIDTH = 12
# ... unless a destination's value set is larger than this (the exact
# ternary cover is exponential in the worst case).  The threshold is a
# function of the semantics alone, so it cannot break confluence.
EXACT_CANON_MAX_VALUES = 1024


@dataclass(frozen=True)
class EqsatBudget:
    """Bounds on saturation.  ``max_seconds`` is None by default because
    a wall-clock cutoff makes the reached fixed point machine-dependent;
    the node and iteration bounds alone keep termination deterministic."""

    max_nodes: int = 4096
    max_iterations: int = 24
    max_seconds: Optional[float] = None


@dataclass
class EqsatStats:
    """What saturation did (surfaced as ``eqsat.*`` obs counters)."""

    classes: int = 0
    nodes: int = 0
    iterations: int = 0
    merges: int = 0
    added: int = 0
    saturated: bool = False
    extract_seconds: float = 0.0
    extract_states: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "classes": self.classes,
            "nodes": self.nodes,
            "iterations": self.iterations,
            "merges": self.merges,
            "added": self.added,
            "saturated": self.saturated,
            "extract_seconds": round(self.extract_seconds, 6),
            "extract_states": self.extract_states,
        }


@dataclass(frozen=True)
class ENode:
    """One hash-consed way of realizing an e-class: an extraction list,
    a (normalized) transition key, and folded rules whose destinations
    are e-class ids or the ACCEPT/REJECT sentinels."""

    extracts: Tuple[str, ...]
    key: Tuple[KeyPart, ...]
    rules: Tuple[FoldedRule, ...]

    @property
    def key_width(self) -> int:
        return sum(k.width for k in self.key)

    def dest_classes(self) -> List[int]:
        return [d for _v, _m, d in self.rules if isinstance(d, int)]

    def sort_token(self) -> str:
        """A deterministic, id-free order token (dests stringified so
        int class ids and sentinel strings compare)."""
        return repr(
            (
                self.extracts,
                tuple(str(k) for k in self.key),
                tuple((v, m, str(d)) for v, m, d in self.rules),
            )
        )


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def normalize_key(key: Sequence[KeyPart]) -> Tuple[KeyPart, ...]:
    """Fuse adjacent field slices of one field and adjacent lookahead
    windows.  Concatenation order is the fold order (first part = most
    significant bits), so fusing never moves a bit."""
    merged: List[KeyPart] = []
    for part in key:
        if merged:
            last = merged[-1]
            if (
                isinstance(last, FieldKey)
                and isinstance(part, FieldKey)
                and last.field == part.field
                and last.lo == part.hi + 1
            ):
                merged[-1] = FieldKey(last.field, last.hi, part.lo)
                continue
            if (
                isinstance(last, LookaheadKey)
                and isinstance(part, LookaheadKey)
                and part.offset == last.offset + last.width
            ):
                merged[-1] = LookaheadKey(last.offset, last.width + part.width)
                continue
        merged.append(part)
    return tuple(merged)


def _dest_token(dest: Dest) -> str:
    return f"c{dest}" if isinstance(dest, int) else str(dest)


@lru_cache(maxsize=4096)
def _semantic_rule_canon(
    rules: Tuple[FoldedRule, ...], width: int
) -> Optional[Tuple[FoldedRule, ...]]:
    """Rebuild a small-width rule list from its exact semantics.

    Computes the first-match value -> destination map (unmatched values
    reject, per P4 semantics), then re-emits one exact minimal ternary
    cover per destination — ordered by (set size desc, smallest member),
    both properties of the semantics, never of the input writing — and a
    trailing catch-all for the largest destination (REJECT included, so
    explicit ``default: reject`` styles converge with implicit ones).
    Returns None when a cover would be too large to rebuild exactly.
    """
    from ..hw.tcam import minimal_cover_exact

    space = 1 << width
    sets: Dict[Dest, List[int]] = {}
    for value in range(space):
        dest: Dest = REJECT
        for rv, rm, rd in rules:
            if (value & rm) == (rv & rm):
                dest = rd
                break
        sets.setdefault(dest, []).append(value)
    # Largest set (ties: smallest member) becomes the trailing default.
    order = sorted(sets, key=lambda d: (-len(sets[d]), min(sets[d])))
    default = order[0]
    out: List[FoldedRule] = []
    for dest in order[1:]:
        values = sets[dest]
        if dest == REJECT:
            continue  # a TCAM/select miss already rejects
        if len(values) > EXACT_CANON_MAX_VALUES:
            return None
        cover = minimal_cover_exact(values, width)
        for pat in sorted(cover, key=lambda p: (-p.mask, p.value)):
            out.append((pat.value & pat.mask, pat.mask, dest))
    out.append((0, 0, default))
    return tuple(out)


def _weak_rule_canon(
    rules: Sequence[FoldedRule], width: int
) -> Tuple[FoldedRule, ...]:
    """Order-preserving cleanups for keys too wide to enumerate: truncate
    after the first catch-all, drop rules a single earlier rule subsumes,
    and merge adjacent same-destination rules differing in one mask bit
    (the -R1/-R2/-R3 directions of Figure 21)."""
    kept: List[FoldedRule] = []
    for value, mask, dest in rules:
        dead = False
        for pv, pm, _pd in kept:
            if (pm & mask) == pm and (value & pm) == (pv & pm):
                dead = True  # an earlier rule always fires first
                break
        if dead:
            continue
        kept.append((value & mask, mask, dest))
        if mask == 0:
            break
    merged = True
    while merged:
        merged = False
        for i in range(len(kept) - 1):
            av, am, ad = kept[i]
            bv, bm, bd = kept[i + 1]
            if ad != bd or am != bm:
                continue
            diff = (av ^ bv) & am
            if diff and (diff & (diff - 1)) == 0:
                nm = am & ~diff
                kept[i : i + 2] = [(av & nm, nm, ad)]
                merged = True
                break
    return tuple(kept)


def make_node(
    extracts: Sequence[str],
    key: Sequence[KeyPart],
    rules: Sequence[FoldedRule],
) -> ENode:
    """Build an e-node in normal form."""
    nkey = normalize_key(key)
    width = sum(k.width for k in nkey)
    if not nkey:
        dest = rules[0][2] if rules else REJECT
        return ENode(tuple(extracts), (), ((0, 0, dest),))
    canon: Optional[Tuple[FoldedRule, ...]] = None
    if width <= EXACT_CANON_MAX_WIDTH:
        canon = _semantic_rule_canon(tuple(rules), width)
    if canon is None:
        canon = _weak_rule_canon(rules, width)
    if not canon:
        canon = ((0, 0, REJECT),)
    if len(canon) == 1 and canon[0][1] == 0 and not any(
        isinstance(part, LookaheadKey) for part in nkey
    ):
        # Every value reaches one destination and no lookahead window is
        # evaluated: the key is semantically dead, drop it.  (Lookahead
        # must stay — its evaluation rejects short packets.)
        return ENode(tuple(extracts), (), ((0, 0, canon[0][2]),))
    return ENode(tuple(extracts), nkey, canon)


# ---------------------------------------------------------------------------
# The e-graph
# ---------------------------------------------------------------------------

class EGraph:
    """An e-graph over parser-spec states.

    Classes are created once from the input spec's states and only ever
    merge, so every class keeps at least one source-state name; rewrites
    add equivalent nodes to existing classes (non-destructive), and the
    worklist rebuild restores congruence after merges.
    """

    def __init__(self, spec: ParserSpec):
        self.spec = spec
        self._uf: List[int] = []
        self._nodes: Dict[int, List[ENode]] = {}
        self._node_set: Dict[int, Set[ENode]] = {}
        self._names: Dict[int, List[str]] = {}
        self._hashcons: Dict[ENode, int] = {}
        self._parents: Dict[int, Set[int]] = {}
        self._worklist: List[int] = []
        self.merges = 0
        self.added = 0

        name_to_cid = {}
        order = [n for n in spec.state_order if n in spec.states]
        for name in spec.states:
            if name not in order:
                order.append(name)
        for name in order:
            cid = len(self._uf)
            self._uf.append(cid)
            name_to_cid[name] = cid
            self._nodes[cid] = []
            self._node_set[cid] = set()
            self._names[cid] = [name]
            self._parents[cid] = set()
        self.start_cid = name_to_cid[spec.start]
        for name in order:
            state = spec.states[name]
            widths = [k.width for k in state.key]
            folded: List[FoldedRule] = []
            for rule in state.rules:
                value, mask = rule.combined_value_mask(widths)
                dest: Dest = rule.next_state
                if dest not in (ACCEPT, REJECT):
                    dest = name_to_cid[dest]
                folded.append((value, mask, dest))
            node = make_node(state.extracts, state.key, folded)
            self._insert(name_to_cid[name], node)
        self.rebuild()

    # -- union-find --------------------------------------------------------
    def find(self, cid: int) -> int:
        root = cid
        while self._uf[root] != root:
            root = self._uf[root]
        while self._uf[cid] != root:
            self._uf[cid], cid = root, self._uf[cid]
        return root

    def class_ids(self) -> List[int]:
        return sorted({self.find(c) for c in range(len(self._uf))})

    def nodes_of(self, cid: int) -> List[ENode]:
        return list(self._nodes[self.find(cid)])

    def names_of(self, cid: int) -> List[str]:
        return list(self._names[self.find(cid)])

    def num_nodes(self) -> int:
        return sum(len(self._nodes[c]) for c in self.class_ids())

    # -- construction ------------------------------------------------------
    def _canonical(self, node: ENode) -> ENode:
        rules = tuple(
            (v, m, self.find(d) if isinstance(d, int) else d)
            for v, m, d in node.rules
        )
        return make_node(node.extracts, node.key, rules)

    def _insert(self, owner: int, node: ENode) -> bool:
        """Add a canonical node to ``owner``; returns True when new."""
        owner = self.find(owner)
        node = self._canonical(node)
        existing = self._hashcons.get(node)
        if existing is not None:
            existing = self.find(existing)
            if existing != owner:
                self.merge(existing, owner)
            return False
        if node in self._node_set[owner]:
            return False
        self._node_set[owner].add(node)
        self._nodes[owner].append(node)
        self._hashcons[node] = owner
        for dest in node.dest_classes():
            self._parents.setdefault(self.find(dest), set()).add(owner)
        self.added += 1
        return True

    def merge(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        leader, loser = min(ra, rb), max(ra, rb)
        self._uf[loser] = leader
        self._nodes[leader].extend(self._nodes.pop(loser))
        self._node_set[leader] |= self._node_set.pop(loser)
        self._names[leader].extend(self._names.pop(loser))
        self._parents.setdefault(leader, set())
        self._parents[leader] |= self._parents.pop(loser, set())
        self.merges += 1
        self._worklist.append(leader)
        return leader

    def rebuild(self) -> None:
        """Worklist congruence restoration: after a merge, every class
        whose nodes reference the merged class re-canonicalizes them; a
        hash-cons hit on another class is a congruence and merges too."""
        while self._worklist:
            dirty = self.find(self._worklist.pop())
            owners = {self.find(o) for o in self._parents.get(dirty, set())}
            owners.add(dirty)  # its own node list needs re-canonicalizing
            for owner in sorted(owners):
                owner = self.find(owner)
                old = self._nodes[owner]
                self._nodes[owner] = []
                self._node_set[owner] = set()
                for node in old:
                    if self._hashcons.get(node) == owner:
                        del self._hashcons[node]
                for node in old:
                    canon = self._canonical(node)
                    if canon in self._node_set[owner]:
                        continue
                    existing = self._hashcons.get(canon)
                    if existing is not None and self.find(existing) != owner:
                        self.merge(existing, owner)
                        owner = self.find(owner)
                    self._node_set[owner].add(canon)
                    self._nodes[owner].append(canon)
                    self._hashcons[canon] = owner
                    for dest in canon.dest_classes():
                        self._parents.setdefault(
                            self.find(dest), set()
                        ).add(owner)

    # -- rewrites ----------------------------------------------------------
    def _r5_candidates(self, owner: int, node: ENode) -> List[ENode]:
        """-R5: an unconditional node composes with every node of its
        destination class (extraction order is preserved, so lookahead
        offsets and stack reads stay correct)."""
        if node.key or len(node.rules) != 1:
            return []
        dest = node.rules[0][2]
        if not isinstance(dest, int):
            return []
        dest = self.find(dest)
        if dest == self.find(owner):
            return []
        out = []
        for succ in self._nodes[dest]:
            if any(self.find(d) == self.find(owner)
                   for d in succ.dest_classes()):
                continue  # composing into a cycle only feeds node growth
            out.append(
                make_node(node.extracts + succ.extracts, succ.key, succ.rules)
            )
        return out

    def _r4_candidates(self, owner: int, node: ENode) -> List[ENode]:
        """-R4: collapse a key chain — every non-default rule is exact
        and targets a class holding an extraction-free keyed node; the
        children's common key concatenates onto the parent's."""
        if not node.key:
            return []
        width = node.key_width
        full = (1 << width) - 1
        body = list(node.rules)
        default: Optional[Dest] = None
        if body and body[-1][1] == 0:
            default = body[-1][2]
            body = body[:-1]
        if not body:
            return []
        dests: List[int] = []
        for value, mask, dest in body:
            if mask != full or not isinstance(dest, int):
                return []
            if self.find(dest) == self.find(owner):
                return []
            dests.append(self.find(dest))

        def eligible(child: ENode) -> bool:
            if child.extracts or not child.key:
                return False
            if default is not None:
                # With a parent default the merge must not change what
                # unmatched-low values do: the child must end in its own
                # catch-all, and must not key on lookahead (whose
                # evaluation the default used to bypass).
                if child.rules[-1][1] != 0:
                    return False
                if any(isinstance(p, LookaheadKey) for p in child.key):
                    return False
            return True

        per_dest: Dict[int, Dict[Tuple[KeyPart, ...], ENode]] = {}
        for dest in set(dests):
            table: Dict[Tuple[KeyPart, ...], ENode] = {}
            for child in self._nodes[dest]:
                if eligible(child) and child.key not in table:
                    table[child.key] = child
            per_dest[dest] = table
        common = None
        for dest in dests:
            keys = set(per_dest[dest])
            common = keys if common is None else common & keys
        if not common:
            return []
        out = []
        for child_key in sorted(common, key=lambda k: str(k))[:2]:
            child_width = sum(k.width for k in child_key)
            if width + child_width > EXACT_CANON_MAX_WIDTH:
                continue
            merged: List[FoldedRule] = []
            for (value, _mask, dest) in body:
                child = per_dest[self.find(dest)][child_key]  # type: ignore[arg-type]
                for cv, cm, cd in child.rules:
                    if cm == 0 and default is not None and cd == default:
                        continue  # duplicates the parent default
                    merged.append(
                        (
                            (value << child_width) | (cv & cm),
                            (full << child_width) | cm,
                            cd,
                        )
                    )
            if default is not None:
                merged.append((0, 0, default))
            out.append(
                make_node(node.extracts, node.key + child_key, merged)
            )
        return out

    # -- saturation --------------------------------------------------------
    def saturate(self, budget: Optional[EqsatBudget] = None) -> EqsatStats:
        budget = budget or EqsatBudget()
        stats = EqsatStats()
        deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        for iteration in range(budget.max_iterations):
            stats.iterations = iteration + 1
            before_merges = self.merges
            candidates: List[Tuple[int, ENode]] = []
            for cid in self.class_ids():
                for node in list(self._nodes[cid]):
                    for cand in self._r5_candidates(cid, node):
                        candidates.append((cid, cand))
                    for cand in self._r4_candidates(cid, node):
                        candidates.append((cid, cand))
            grew = False
            for owner, cand in candidates:
                if self.num_nodes() >= budget.max_nodes:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    break
                if self._insert(owner, cand):
                    grew = True
            self.rebuild()
            if not grew and self.merges == before_merges:
                stats.saturated = True
                break
            if self.num_nodes() >= budget.max_nodes:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
        stats.classes = len(self.class_ids())
        stats.nodes = self.num_nodes()
        stats.merges = self.merges
        stats.added = self.added
        return stats

    # -- extraction --------------------------------------------------------
    def _reachable(self, assignment: Dict[int, ENode]) -> List[int]:
        root = self.find(self.start_cid)
        seen = [root]
        seen_set = {root}
        queue = [root]
        while queue:
            cid = queue.pop(0)
            for dest in assignment[cid].dest_classes():
                dest = self.find(dest)
                if dest not in seen_set:
                    seen_set.add(dest)
                    seen.append(dest)
                    queue.append(dest)
        return seen

    def _cost(self, assignment: Dict[int, ENode]) -> Tuple[int, int, int]:
        reachable = self._reachable(assignment)
        return (
            len(reachable),
            sum(len(assignment[c].rules) for c in reachable),
            -sum(assignment[c].key_width for c in reachable),
        )

    def extract(self, max_sweeps: int = 8) -> ParserSpec:
        """Pick one node per reachable class (fewest states, then fewest
        entries, then widest merged keys) by deterministic coordinate
        descent, then emit a canonically renamed spec in DFS preorder."""
        assignment = {
            cid: min(
                self._nodes[cid],
                key=lambda n: (len(n.rules), -n.key_width, n.sort_token()),
            )
            for cid in self.class_ids()
        }
        cost = self._cost(assignment)
        for _sweep in range(max_sweeps):
            improved = False
            for cid in self.class_ids():
                best_node = assignment[cid]
                best_cost = cost
                for node in self._nodes[cid]:
                    if node is assignment[cid]:
                        continue
                    assignment[cid] = node
                    trial = self._cost(assignment)
                    if trial < best_cost:
                        best_cost, best_node = trial, node
                        improved = True
                assignment[cid] = best_node
                cost = best_cost
            if not improved:
                break

        # DFS preorder over the chosen representatives.
        root = self.find(self.start_cid)
        preorder: List[int] = []
        seen = {root}
        stack = [root]
        while stack:
            cid = stack.pop()
            preorder.append(cid)
            succs = []
            for dest in assignment[cid].dest_classes():
                dest = self.find(dest)
                if dest not in seen:
                    seen.add(dest)
                    succs.append(dest)
            stack.extend(reversed(succs))

        # Canonical structural names: the start keeps the input's start
        # name (mutations never rename it), every other class is named
        # by preorder position — so equivalent specs get identical names
        # no matter what the input called its states.
        names: Dict[int, str] = {root: self.spec.start}
        counter = 0
        for cid in preorder[1:]:
            name = f"q{counter}"
            while name == self.spec.start:
                counter += 1
                name = f"q{counter}"
            names[cid] = name
            counter += 1

        states: Dict[str, SpecState] = {}
        for cid in preorder:
            node = assignment[cid]
            widths = [k.width for k in node.key]
            rules = []
            for value, mask, dest in node.rules:
                target = (
                    names[self.find(dest)] if isinstance(dest, int) else dest
                )
                if node.key:
                    rules.append(
                        _rule_from_folded(value, mask, widths, target)
                    )
                else:
                    rules.append(Rule((), target))
            states[names[cid]] = SpecState(
                names[cid], node.extracts, node.key, tuple(rules)
            )
        out = ParserSpec(
            self.spec.name,
            dict(self.spec.fields),
            states,
            names[root],
            [names[c] for c in preorder],
        )
        _check_spec(out)
        return out

    def class_summary(self) -> List[Dict[str, object]]:
        """Per-class stats for the ``repro ir canon`` CLI."""
        out = []
        for cid in self.class_ids():
            out.append(
                {
                    "class": cid,
                    "names": list(self._names[cid]),
                    "nodes": len(self._nodes[cid]),
                }
            )
        return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

# One compile calls prepare_spec once per loop arm and once per
# unscaled verification retry, always on the same canonicalized spec;
# saturation is deterministic, so cache by content fingerprint.
_SATURATE_CACHE: Dict[Tuple[str, EqsatBudget], Tuple[ParserSpec, EqsatStats]] = {}
_SATURATE_CACHE_MAX = 128


def saturate_spec(
    spec: ParserSpec, budget: Optional[EqsatBudget] = None
) -> Tuple[ParserSpec, EqsatStats]:
    """Equality-saturate a spec and extract its canonical representative.

    Emits ``eqsat.iterations`` / ``eqsat.classes`` / ``eqsat.nodes`` /
    ``eqsat.extract_seconds`` obs counters under an ``eqsat`` span.
    """
    from ..persist.fingerprint import spec_fingerprint

    budget = budget or EqsatBudget()
    cache_key = (spec_fingerprint(spec), budget)
    cached = _SATURATE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    tracer = get_tracer()
    with tracer.span("eqsat", states=len(spec.states)):
        graph = EGraph(spec)
        stats = graph.saturate(budget)
        t0 = time.monotonic()
        extracted = graph.extract()
        stats.extract_seconds = time.monotonic() - t0
        stats.extract_states = len(extracted.states)
        tracer.count("eqsat.iterations", stats.iterations)
        tracer.count("eqsat.classes", stats.classes)
        tracer.count("eqsat.nodes", stats.nodes)
        tracer.count("eqsat.extract_seconds", stats.extract_seconds)
    if len(_SATURATE_CACHE) >= _SATURATE_CACHE_MAX:
        _SATURATE_CACHE.pop(next(iter(_SATURATE_CACHE)))
    _SATURATE_CACHE[cache_key] = (extracted, stats)
    return extracted, stats
