"""Postulates of inconsistency measures as oracles across instances.

Livshits, Kochirgan, Tsur, Ilyas, Kimelfeld and Roy ("Properties of
Inconsistency Measures for Databases", SIGMOD 2021) list properties that a
database inconsistency measure may satisfy.  The other oracles compute one
answer a second way; these check how answers on related instances compare,
so a slip in semantics that both ways share still shows.  Each runs g3,
g3_endogenous (under a seeded partition of about 70% of the tids, normalized
by the instance size) and g3_null over the seeded corpus.  Consistency and
the conflicts of an added fact are read from the brute-force oracle, which
shares no code with the join engine.  The paper's update bounds (C4), a
continuity property, are checked on every single-fact delta of the corpus.

On the FD workload, rel(A, B, C) under A -> B, the postulates are checked
at scale: each value there must equal the closed form of one FD or of
FDs with a common left-hand side, every key group less one largest class
of the dependent values (Livshits, Kimelfeld and Roy, PODS 2018),
computed here from the rows alone.
"""

import random
from collections import Counter

from incmeter.conflicts import build_hypergraph
from incmeter.measures import inc_deg_g3, inc_deg_g3_endogenous
from incmeter.model import ConstraintSet, Fact, Instance, parse_constraints
from incmeter.nullrep import inc_deg_g3_null
from incmeter.updates import (UpdateDelta, apply_update, check_deletion_bounds,
                              check_insertion_bounds, incremental_hypergraph)

from conftest import fd_key_groups, skewed_key_group
from oracles import brute_force, consistent


def _reports(instance, constraints, partition):
    """The three measures' reports on instance, by kind."""
    endogenous = Instance(instance.schema, instance.facts, partition, declared=True)
    return {"g3": inc_deg_g3(instance, constraints),
            "g3_endogenous": inc_deg_g3_endogenous(endogenous, constraints),
            "g3_null": inc_deg_g3_null(instance, constraints)}


def _partitioned(corpus, seed=1361):
    """Each corpus item with a seeded partition keeping about 70% of its tids."""
    rng = random.Random(seed)
    for item in corpus:
        yield item, frozenset(t for t in item.instance.tids if rng.random() < 0.7)


def test_a_measure_is_positive_exactly_on_inconsistent_instances(corpus):
    seen = Counter()
    for item, partition in _partitioned(corpus):
        inconsistent = not consistent(item.instance, item.constraints)
        seen[inconsistent] += 1
        for kind, report in _reports(item.instance, item.constraints, partition).items():
            assert (report.value > 0) == inconsistent, (kind, item.instance.facts)
    assert min(seen.values()) > 100, seen


def test_dropping_a_constraint_never_raises_a_measure(corpus):
    fell = Counter()
    for item, partition in _partitioned(corpus):
        every = _reports(item.instance, item.constraints, partition)
        for dropped in item.constraints:
            rest = ConstraintSet(tuple(c for c in item.constraints if c is not dropped))
            for kind, report in _reports(item.instance, rest, partition).items():
                assert report.value <= every[kind].value, (kind, dropped.name)
                fell[kind] += report.value < every[kind].value
    assert min(fell[kind] for kind in ("g3", "g3_endogenous", "g3_null")) > 50, fell


def _conflict_free_additions(item, rng, tries=3, domain="abcde"):
    """Of tries random new facts, each that takes part in no violation once
    added to item's instance, with the instance it was added to."""
    rows = {(f.predicate, f.values) for f in item.instance.facts}
    top = max(item.instance.tids, default=0)
    for _ in range(tries):
        row = rng.choice([("r", (rng.choice(domain), rng.choice(domain))),
                          ("s", (rng.choice(domain),))])
        if row in rows:
            continue
        fact = Fact(top + 1, *row)
        grown = Instance(item.instance.schema, item.instance.facts + (fact,))
        if not any(fact in match for dc in item.constraints
                   for match in brute_force(grown.facts, dc)):
            yield fact, grown


def test_adding_a_conflict_free_fact_changes_no_numerator(corpus):
    rng, added = random.Random(4242), 0
    for item, partition in _partitioned(corpus):
        before = _reports(item.instance, item.constraints, partition)
        for fact, grown in _conflict_free_additions(item, rng):
            added += 1
            # the new fact joins the partition as about 70% of the tids do
            endogenous = partition | {fact.tid} if rng.random() < 0.7 else partition
            after = _reports(grown, item.constraints, endogenous)
            for kind, report in after.items():
                if before[kind].witness is None:  # no allowed change repairs: pinned to 1
                    assert report.witness is None and report.value == 1, kind
                else:
                    assert report.numerator == before[kind].numerator, (kind, fact)
    assert added > 500, added


def test_the_restricted_measure_is_at_least_g3(corpus):
    for item, partition in _partitioned(corpus):
        reports = _reports(item.instance, item.constraints, partition)
        assert reports["g3_endogenous"].value >= reports["g3"].value


def test_the_update_bounds_hold_on_every_single_fact_delta(corpus):
    """C4, the paper's sandwich of the measure after a pure delta, on every
    single-tid deletion and every absent r(x, y) row over abcd, with the
    hypergraphs handed in as the stream hands them on."""
    seen = Counter()
    for item in corpus:
        inst, cs = item.instance, item.constraints
        if len(inst) < 2:
            continue
        hg = build_hypergraph(inst, cs)
        rows = {f[1:] for f in inst.facts}
        deltas = [UpdateDelta((), frozenset({t})) for t in inst.tids]
        deltas += [UpdateDelta((row,), frozenset()) for row in
                   (("r", (x, y)) for x in "abcd" for y in "abcd") if row not in rows]
        for delta in deltas:
            apply_update(inst, delta)
            hg_after = incremental_hypergraph(hg, inst, delta, cs)
            check = check_insertion_bounds if delta.insertions else check_deletion_bounds
            report = check(inst, delta, cs, hg_before=hg, hg_after=hg_after)
            assert report.applicable and all(b.holds for b in report.bounds), (delta, inst.facts)
            seen[report.direction, report.deleted_all_isolated] += 1
    assert sum(seen.values()) > 7000 and min(seen.values()) > 300, seen


# --- the FD workload ----------------------------------------------------------

def _closed_form(instance, dependent=(1,)):
    """The smallest deletion count under A -> each attribute at dependent:
    per A value, its rows less those of one largest class of dependent
    values."""
    classes = {}
    for f in instance.facts:
        key = tuple(f.values[p] for p in dependent)
        classes.setdefault(f.values[0], Counter())[key] += 1
    return sum(sum(c.values()) - max(c.values()) for c in classes.values())


def _fd_cases():
    """fd_key_groups at 2000 rows and the skewed key groups of 80 and 250
    rows, with their optima."""
    yield fd_key_groups(random.Random(1), 2000)
    for n in (80, 250):
        yield skewed_key_group(n)


def _with_rows(instance, rows):
    """instance with rel rows added under fresh tids."""
    top = max(instance.tids)
    return Instance(instance.schema, instance.facts + tuple(
        Fact(top + i, "rel", r) for i, r in enumerate(rows, 1)))


def test_positivity_and_conflict_free_additions_on_key_groups():
    for cs, inst, optimum in _fd_cases():
        report = inc_deg_g3(inst, cs)
        assert report.numerator == optimum == _closed_form(inst) > 0
        # the repair the witness leaves is consistent, and measures 0
        repaired = Instance(inst.schema, tuple(f for f in inst.facts
                                               if f.tid not in report.witness.deleted))
        assert inc_deg_g3(repaired, cs).value == 0 == _closed_form(repaired)
        # a row of a new key, and one joining a key group of one B value
        # with that value, conflict with nothing and change no numerator
        values = {}
        for f in inst.facts:
            values.setdefault(f.values[0], set()).add(f.values[1])
        additions = [("fresh", "b0", "new")] + [
            (a, *b, "new") for a, b in values.items() if len(b) == 1][:1]
        for row in additions:
            grown = _with_rows(inst, [row])
            assert inc_deg_g3(grown, cs).numerator == optimum == _closed_form(grown)


def test_monotonicity_from_one_fd_to_two_with_a_common_lhs():
    # A -> B and A -> C: each key group's conflicts are again complete
    # multipartite, over its (B, C) classes
    for cs, inst, _ in _fd_cases():
        rng, rows = random.Random(len(inst)), {}
        for f in inst.facts:  # C from two values, each row kept once
            rows.setdefault(f.values[:2] + (f"c{rng.randrange(2)}",), f.tid)
        inst = Instance(inst.schema, tuple(Fact(t, "rel", r) for r, t in rows.items()))
        both = parse_constraints("fd key : rel : A -> B\nfd key_c : rel : A -> C\n",
                                 inst.schema)
        one, two = inc_deg_g3(inst, cs), inc_deg_g3(inst, both)
        assert one.numerator == _closed_form(inst)
        assert two.numerator == _closed_form(inst, (1, 2))
        assert one.value <= two.value
        hg = build_hypergraph(inst, both)
        inc_deg_g3(inst, both, hg)
        assert hg._answer.nodes == len(hg.components)  # each closed by formula
