"""Seeded input generators for the benchmark workloads.

Instances are plain data: a dict mapping predicate names to row tuples in
file order.  Tids follow the loader's documented rule (predicates in name
order, then row order, counting from 1), so the oracles can name facts
without asking the program.  Every value is a lowercase identifier, which
keeps CSV, delta and logic-program renderings free of quoting.
"""

from __future__ import annotations

import random
from pathlib import Path

SCAN_SCHEMA = "rel(A, B, C)\nord(O, C)\ncust(C, S)\n"
SCAN_CONSTRAINTS = ('fd key : rel : A -> B\n'
                    'dc closed : !exists ord(o, c), cust(c, s), s = "closed"\n')
FD_SCHEMA = "rel(A, B, C)\n"
FD_CONSTRAINTS = "fd key : rel : A -> B\n"
HEADERS = {"rel": "A,B,C", "ord": "O,C", "cust": "C,S"}

# Planted key groups draw B from two values.  A complete bipartite conflict
# graph has a greedy matching as large as its minimum cover, so the exact
# solver's bound is tight on these groups and scan/stream stay join-bound.
GROUP_VALUES = ("x", "y")
MAX_GROUP = 8


def tid_facts(rows):
    """(tid, predicate, values) for every row, in tid order."""
    out = []
    for pred in sorted(rows):
        for values in rows[pred]:
            out.append((len(out) + 1, pred, values))
    return out


def write_instance(data: Path, rows, endogenous=None) -> None:
    """Write a CLI data directory: one CSV per relation, and the deletable tids."""
    data.mkdir(parents=True)
    for pred, table in rows.items():
        lines = [HEADERS[pred]] + [",".join(r) for r in table]
        (data / f"{pred}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if endogenous is not None:
        (data / "endogenous.txt").write_text(
            "".join(f"{t}\n" for t in sorted(endogenous)), encoding="utf-8")


def scan_instance(rng: random.Random, total: int, groups=6, closed_share=0.05):
    """rel/ord/cust rows: a few planted key groups and a few closed customers.

    30% rel, 15% cust, the rest ord.  Every other rel row has its own key and
    most customers are open, so conflicts are few and sparse; each order of
    a closed customer conflicts with that customer (a star).
    """
    n_rel, n_cust = int(total * 0.3), int(total * 0.15)
    n_ord = total - n_rel - n_cust
    rel = []
    for g in range(groups):
        for _ in range(rng.randint(3, 6)):
            rel.append((f"k{g}", rng.choice(GROUP_VALUES), f"c{len(rel)}"))
    while len(rel) < n_rel:
        rel.append((f"a{len(rel)}", rng.choice(GROUP_VALUES), f"c{len(rel)}"))
    rng.shuffle(rel)
    closed = set(rng.sample(range(n_cust), max(1, int(n_cust * closed_share))))
    cust = [(f"u{i}", "closed" if i in closed else "open") for i in range(n_cust)]
    ords = [(f"o{i}", f"u{rng.randrange(n_cust)}") for i in range(n_ord)]
    return {"cust": cust, "ord": ords, "rel": rel}


def fd_instance(rng: random.Random, n: int, keys: int, values=2):
    """n rel rows over `keys` keys and `values` B values: dense key groups."""
    return {"rel": [(f"k{rng.randrange(keys)}", f"b{rng.randrange(values)}", f"c{i}")
                    for i in range(n)]}


def roadmap_instance(rng: random.Random, n: int):
    """The FD shape that exhausts the exact solver: n rows, n/4 keys, 3 B values."""
    return fd_instance(rng, n, n // 4, 3)


def endogenous_tids(rng: random.Random, rows, irreparable: bool):
    """Deletable tids for an FD instance.

    Each key group keeps one protected B value; only rows with that value may
    be exogenous, so a restricted repair exists.  With irreparable set, one
    group gets exogenous rows in two classes, which no allowed deletion fixes.
    """
    facts = tid_facts(rows)
    by_key = {}
    for tid, _, (a, b, _) in facts:
        by_key.setdefault(a, {}).setdefault(b, []).append(tid)
    exogenous = set()
    for classes in by_key.values():
        protected = rng.choice(sorted(classes))
        exogenous.update(t for t in classes[protected] if rng.random() < 0.5)
    if irreparable:
        split = [c for c in by_key.values() if len(c) >= 2]
        classes = split[rng.randrange(len(split))]
        for value in sorted(classes)[:2]:
            exogenous.add(classes[value][0])
    return {tid for tid, _, _ in facts} - exogenous


def enum_instance(rng: random.Random, facts: int, group_sizes):
    """A tiny FD instance: planted two-valued groups plus conflict-free rows."""
    rel = []
    for g, size in enumerate(group_sizes):
        values = ["x", "y"] + [rng.choice(GROUP_VALUES) for _ in range(size - 2)]
        rng.shuffle(values)
        rel += [(f"k{g}", v, f"c{len(rel) + i}") for i, v in enumerate(values)]
    while len(rel) < facts:
        rel.append((f"a{len(rel)}", rng.choice(GROUP_VALUES), f"c{len(rel)}"))
    rng.shuffle(rel)
    return {"rel": rel}


def uniform_hypergraph(rng: random.Random, vertices: int, edges: int, d=3):
    """`edges` distinct random d-subsets of 1..vertices."""
    out = set()
    while len(out) < edges:
        out.add(frozenset(rng.sample(range(1, vertices + 1), d)))
    return sorted((tuple(sorted(e)) for e in out))


class DeltaStream:
    """Generates valid deltas for a scan-style instance, tracking its state.

    Tids follow the program's documented update rule: inserted rows get fresh
    tids above the largest tid present before the delta.  Deltas are pure
    inserts, pure deletes or one-in-one-out; about 40% of their rows touch
    planted key groups or closed customers.  Inserts and deletes balance
    around the base size, and planted groups stay at most MAX_GROUP rows.
    """

    def __init__(self, rng: random.Random, rows, groups=6):
        self.rng = rng
        self.groups = groups
        self.facts = {}
        self.tids = []
        self.rows = set()
        self.group_size = {}
        self.status = {}
        for tid, pred, values in tid_facts(rows):
            self._add(tid, pred, values)
        self.target = len(self.tids)
        self.fresh = self.target

    def _add(self, tid, pred, values):
        self.facts[tid] = (pred, values, len(self.tids))
        self.tids.append(tid)
        self.rows.add((pred, values))
        if pred == "rel":
            self.group_size[values[0]] = self.group_size.get(values[0], 0) + 1
        elif pred == "cust":
            self.status[values[0]] = values[1]

    def _remove(self, tid):
        pred, values, pos = self.facts.pop(tid)
        last = self.tids.pop()
        if last != tid:
            self.tids[pos] = last
            self.facts[last] = self.facts[last][:2] + (pos,)
        self.rows.discard((pred, values))
        if pred == "rel":
            self.group_size[values[0]] -= 1
        elif pred == "cust":
            del self.status[values[0]]

    def _dirty(self, tid):
        pred, values, _ = self.facts[tid]
        if pred == "rel":
            return values[0].startswith("k")
        if pred == "cust":
            return values[1] == "closed"
        return self.status.get(values[1]) == "closed"

    def _pick_deletion(self, dirty, taken):
        for _ in range(64):
            tid = self.tids[self.rng.randrange(len(self.tids))]
            if tid not in taken and self._dirty(tid) == dirty:
                return tid
        return None

    def _new_row(self, dirty):
        rng = self.rng
        self.fresh += 1
        kind = rng.choice(("rel", "rel", "ord", "cust"))
        if kind == "rel":
            key = f"k{rng.randrange(self.groups)}"
            if not dirty or self.group_size.get(key, 0) >= MAX_GROUP:
                key = f"a{self.fresh}"
            return "rel", (key, rng.choice(GROUP_VALUES), f"c{self.fresh}")
        if kind == "ord":
            want = "closed" if dirty else "open"
            custs = [c for c, s in self.status.items() if s == want]
            if custs:
                return "ord", (f"o{self.fresh}", rng.choice(custs))
        status = "closed" if dirty and rng.random() < 0.5 else "open"
        return "cust", (f"u{self.fresh}", status)

    def next_delta(self) -> str:
        """Text of the next delta, in the program's delta-file format."""
        rng = self.rng
        r = rng.random()
        lean = 0.1 if len(self.tids) < self.target else -0.1
        if r < 0.4 + lean:
            inserts, deletes = rng.randint(1, 3), 0
        elif r < 0.8:
            inserts, deletes = 0, rng.randint(1, 3)
        else:
            inserts, deletes = 1, 1
        deleted = []
        for _ in range(deletes):
            tid = self._pick_deletion(rng.random() < 0.4, deleted)
            if tid is None:
                tid = self._pick_deletion(False, deleted)
            deleted.append(tid)
        inserted = []
        for _ in range(inserts):
            row = self._new_row(rng.random() < 0.4)
            while row in self.rows or row in inserted:
                row = self._new_row(False)
            inserted.append(row)
        next_tid = max(self.facts) + 1
        for tid in deleted:
            self._remove(tid)
        for pred, values in inserted:
            self._add(next_tid, pred, values)
            next_tid += 1
        lines = [f"+ {pred}({', '.join(values)})" for pred, values in inserted]
        lines += [f"- {tid}" for tid in deleted]
        return "\n".join(lines) + "\n"
